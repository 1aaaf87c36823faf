package floorplan

import (
	"physdep/internal/physerr"
	"physdep/internal/units"
)

// Route is the physical path a cable takes between two racks: its pulled
// length (slack included) and the tray segments it occupies. Cabling uses
// routes to pick media by length and to account tray cross-section.
type Route struct {
	From, To  RackLoc
	Length    units.Meters
	Segments  []int // tray segment IDs traversed, in order
	IntraRack bool
}

// intraRackLen is the standard in-rack patch length: top-of-rack switch to
// anywhere in the same rack.
const intraRackLen units.Meters = 2.0

// NumTraySegments returns how many tray segments the hall has: one per
// inter-slot gap per row, plus spine segments between adjacent rows at
// both ends of the hall.
func (f *Floorplan) NumTraySegments() int {
	return f.Rows*(f.RacksPerRow-1) + 2*(f.Rows-1)
}

// rowSegment returns the segment ID of the row-tray span between slot s
// and s+1 of row r.
func (f *Floorplan) rowSegment(r, s int) int { return r*(f.RacksPerRow-1) + s }

// spineSegment returns the segment ID of the spine span between row r and
// r+1 at the left (end = 0) or right (end = 1) side of the hall.
func (f *Floorplan) spineSegment(r, end int) int {
	base := f.Rows * (f.RacksPerRow - 1)
	return base + end*(f.Rows-1) + r
}

// RouteBetween computes the tray route between two rack locations. Cables
// rise from the rack into its row tray, run along the row, cross between
// rows on the nearer spine tray, and descend at the destination. Length
// includes both risers and the hall's slack factor.
//
// A location outside the hall returns an error wrapping
// physerr.ErrOutOfRange — it used to panic, which let one malformed
// demand crash a whole evaluation.
func (f *Floorplan) RouteBetween(a, b RackLoc) (Route, error) {
	if err := f.CheckLoc(a); err != nil {
		return Route{}, err
	}
	if err := f.CheckLoc(b); err != nil {
		return Route{}, err
	}
	return f.route(a, b), nil
}

// MustRouteLength is the Length of RouteBetween for locations already
// known to be on the floor — placement code whose own bookkeeping
// guarantees validity, inside the annealer's objective loop, where
// building the route's segment list would be pure overhead. It panics on
// an out-of-hall location, which there always indicates a bug in the
// caller, not bad user input.
func (f *Floorplan) MustRouteLength(a, b RackLoc) units.Meters {
	if err := f.CheckLoc(a); err != nil {
		panic(err)
	}
	if err := f.CheckLoc(b); err != nil {
		panic(err)
	}
	return f.routeLength(a, b)
}

// routeLength is the pulled length of the tray route between two
// validated locations: route's Length, without its segments.
func (f *Floorplan) routeLength(a, b RackLoc) units.Meters {
	if a == b {
		return intraRackLen
	}
	var length units.Meters
	if a.Row == b.Row {
		length = 2*RiserLength + units.Meters(abs(a.Slot-b.Slot))*RackPitch
	} else {
		_, run := f.spineRun(a, b)
		length = 2*RiserLength +
			units.Meters(run)*RackPitch +
			units.Meters(abs(a.Row-b.Row))*RowPitch
	}
	return units.Meters(float64(length) * SlackFactor)
}

// spineRun picks the spine a cross-row route takes: the left one (end 0,
// slot 0) or the right one (end 1, the last slot), whichever gives the
// shorter run along the two rows, and returns that run in slots.
func (f *Floorplan) spineRun(a, b RackLoc) (end, run int) {
	last := f.RacksPerRow - 1
	leftRun := a.Slot + b.Slot
	rightRun := (last - a.Slot) + (last - b.Slot)
	if rightRun < leftRun {
		return 1, rightRun
	}
	return 0, leftRun
}

// route computes the tray route between two validated locations. Its
// segment list is sized once from the closed-form count: the slots
// between the two racks, or the run along both rows plus one spine
// segment per row crossed.
func (f *Floorplan) route(a, b RackLoc) Route {
	r := Route{From: a, To: b, Length: f.routeLength(a, b), IntraRack: a == b}
	switch {
	case a == b:
	case a.Row == b.Row:
		lo, hi := min(a.Slot, b.Slot), max(a.Slot, b.Slot)
		r.Segments = make([]int, 0, hi-lo)
		for s := lo; s < hi; s++ {
			r.Segments = append(r.Segments, f.rowSegment(a.Row, s))
		}
	default:
		end, run := f.spineRun(a, b)
		loRow, hiRow := min(a.Row, b.Row), max(a.Row, b.Row)
		segs := make([]int, 0, run+hiRow-loRow)
		// Along a's row toward the chosen end, across the spine, and
		// along b's row back from it.
		segs = f.appendRowSpanToEnd(segs, a, end)
		for row := loRow; row < hiRow; row++ {
			segs = append(segs, f.spineSegment(row, end))
		}
		r.Segments = f.appendRowSpanToEnd(segs, b, end)
	}
	return r
}

// appendRowSpanToEnd appends the row segments from loc to the given end
// of its row (end 0 = slot 0, end 1 = last slot).
func (f *Floorplan) appendRowSpanToEnd(segs []int, l RackLoc, end int) []int {
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

// CheckLoc reports whether l addresses a slot of this hall; an
// out-of-hall location yields an error wrapping physerr.ErrOutOfRange.
func (f *Floorplan) CheckLoc(l RackLoc) error {
	if l.Row < 0 || l.Row >= f.Rows || l.Slot < 0 || l.Slot >= f.RacksPerRow {
		return physerr.OutOfRange("floorplan: rack %v outside %dx%d hall", l, f.Rows, f.RacksPerRow)
	}
	return nil
}

// TrayLoad accumulates cable cross-section per tray segment so designs
// can be checked against TrayCapacity — the constraint the paper notes is
// routinely hidden by abstraction ("a space that is just a little too
// small to accommodate the safe bending radius").
type TrayLoad struct {
	used []units.SquareMillimeters
}

// NewTrayLoad returns an empty load tracker for f.
func NewTrayLoad(f *Floorplan) *TrayLoad {
	return &TrayLoad{used: make([]units.SquareMillimeters, f.NumTraySegments())}
}

// Add records one cable of the given cross-section along route r.
func (t *TrayLoad) Add(r Route, crossSection units.SquareMillimeters) {
	for _, s := range r.Segments {
		t.used[s] += crossSection
	}
}

// Used returns the occupied cross-section of segment s.
func (t *TrayLoad) Used(s int) units.SquareMillimeters { return t.used[s] }

// PeakUtilization returns max over segments of used/capacity.
func (t *TrayLoad) PeakUtilization() float64 {
	peak := 0.0
	for _, u := range t.used {
		if r := float64(u) / float64(TrayCapacity); r > peak {
			peak = r
		}
	}
	return peak
}

// WalkingDistance estimates how far a technician walks between two racks,
// along aisles: down a's row to the nearer cross-aisle, across rows, and
// along b's row. Deployment scheduling charges walking time against this.
func (f *Floorplan) WalkingDistance(a, b RackLoc) units.Meters {
	if a == b {
		return 0
	}
	if a.Row == b.Row {
		return units.Meters(abs(a.Slot-b.Slot)) * RackPitch
	}
	_, run := f.spineRun(a, b)
	return units.Meters(run)*RackPitch + units.Meters(abs(a.Row-b.Row))*RowPitch
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
