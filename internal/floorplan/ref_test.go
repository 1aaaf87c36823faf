package floorplan

import "physdep/internal/units"

// refRoute is the route before its segment list was sized up front,
// kept verbatim as the differential test's reference: it grows the list
// by appends and concatenates two rowSpanToEnd slices.
func (f *Floorplan) refRoute(a, b RackLoc) Route {
	if a == b {
		return Route{From: a, To: b, Length: intraRackLen, IntraRack: true}
	}
	if a.Row == b.Row {
		lo, hi := a.Slot, b.Slot
		if lo > hi {
			lo, hi = hi, lo
		}
		var segs []int
		for s := lo; s < hi; s++ {
			segs = append(segs, f.rowSegment(a.Row, s))
		}
		length := 2*RiserLength + units.Meters(hi-lo)*RackPitch
		return Route{From: a, To: b,
			Length:   units.Meters(float64(length) * SlackFactor),
			Segments: segs}
	}
	// Different rows: compare going via the left spine (slot 0) with the
	// right spine (slot RacksPerRow-1) and take the shorter run.
	last := f.RacksPerRow - 1
	leftRun := a.Slot + b.Slot
	rightRun := (last - a.Slot) + (last - b.Slot)
	end, run := 0, leftRun
	if rightRun < leftRun {
		end, run = 1, rightRun
	}
	loRow, hiRow := a.Row, b.Row
	if loRow > hiRow {
		loRow, hiRow = hiRow, loRow
	}
	var segs []int
	// Along a's row toward the chosen end.
	segs = append(segs, f.refRowSpanToEnd(a, end)...)
	for r := loRow; r < hiRow; r++ {
		segs = append(segs, f.spineSegment(r, end))
	}
	segs = append(segs, f.refRowSpanToEnd(b, end)...)
	length := 2*RiserLength +
		units.Meters(run)*RackPitch +
		units.Meters(hiRow-loRow)*RowPitch
	return Route{From: a, To: b,
		Length:   units.Meters(float64(length) * SlackFactor),
		Segments: segs}
}

// refRowSpanToEnd lists the row segments from loc to the given end of its
// row (end 0 = slot 0, end 1 = last slot).
func (f *Floorplan) refRowSpanToEnd(l RackLoc, end int) []int {
	var segs []int
	if end == 0 {
		for s := 0; s < l.Slot; s++ {
			segs = append(segs, f.rowSegment(l.Row, s))
		}
	} else {
		for s := l.Slot; s < f.RacksPerRow-1; s++ {
			segs = append(segs, f.rowSegment(l.Row, s))
		}
	}
	return segs
}

// refWalkingDistance is WalkingDistance before it shared the spine
// choice with route, kept verbatim as a reference.
func (f *Floorplan) refWalkingDistance(a, b RackLoc) units.Meters {
	if a == b {
		return 0
	}
	if a.Row == b.Row {
		d := a.Slot - b.Slot
		if d < 0 {
			d = -d
		}
		return units.Meters(d) * RackPitch
	}
	last := f.RacksPerRow - 1
	leftRun := a.Slot + b.Slot
	rightRun := (last - a.Slot) + (last - b.Slot)
	run := leftRun
	if rightRun < leftRun {
		run = rightRun
	}
	dr := a.Row - b.Row
	if dr < 0 {
		dr = -dr
	}
	return units.Meters(run)*RackPitch + units.Meters(dr)*RowPitch
}
