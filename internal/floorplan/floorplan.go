// Package floorplan models the physical side of a datacenter hall: rows
// of rack slots, overhead cable trays, cross-aisle spine trays, doors, and
// per-rack plenum space. It answers the questions the paper says abstract
// network designs ignore — how far apart two switches really are, which
// tray segments their cable occupies, and whether a pre-cabled unit fits
// through the door.
package floorplan

import (
	"fmt"

	"physdep/internal/physerr"
	"physdep/internal/units"
)

// Hall describes a rectangular machine hall with Rows parallel rows of
// RacksPerRow rack slots each. Cables leave a rack vertically into an
// overhead tray running along its row; row trays connect to perpendicular
// spine trays at both ends of the hall. Every hall shares the geometry
// constants below; only its size varies.
type Hall struct {
	Rows        int
	RacksPerRow int
}

// The hall envelope: the geometry of a modest production-style hall,
// sized so the E1 topologies (up to a few hundred switches) fit
// comfortably. Automation works inside this one declared envelope, so
// these are constants, not per-hall settings.
const (
	RackPitch   units.Meters = 0.7  // center-to-center slot spacing along a row
	RowPitch    units.Meters = 1.8  // center-to-center spacing between rows
	RiserLength units.Meters = 2.5  // rack top-of-rack to tray, per end of a cable
	SlackFactor float64      = 1.15 // multiplier ≥ 1 for routing slack & service loops

	DoorWidth units.Meters = 1.1 // limits how wide a pre-assembled unit can be
	RackWidth units.Meters = 0.6 // physical rack width

	TrayCapacity   units.SquareMillimeters = 120000 // usable cross-section per tray segment: a 600 mm × 200 mm tray
	PlenumCapacity units.SquareMillimeters = 60000  // usable intra-rack cable plenum per rack
	RackUnits                              = 42     // usable RU per rack
)

// DefaultHall returns a hall of rows × racksPerRow slots.
func DefaultHall(rows, racksPerRow int) Hall {
	return Hall{Rows: rows, RacksPerRow: racksPerRow}
}

// MaxRacks bounds how many rack slots a hall may declare. Real halls top
// out in the low thousands of racks; the bound exists so an absurd or
// corrupted Hall fails validation instead of exhausting memory.
const MaxRacks = 1 << 20

// Validate checks that the hall has at least one row and slot and no
// more than MaxRacks in total. Violations wrap physerr.ErrOutOfRange.
func (h Hall) Validate() error {
	if h.Rows < 1 || h.RacksPerRow < 1 {
		return physerr.OutOfRange("floorplan: need at least one row and one slot, got %dx%d", h.Rows, h.RacksPerRow)
	}
	if h.Rows > MaxRacks || h.RacksPerRow > MaxRacks || h.Rows*h.RacksPerRow > MaxRacks {
		return physerr.OutOfRange("floorplan: %dx%d hall exceeds %d rack slots", h.Rows, h.RacksPerRow, MaxRacks)
	}
	return nil
}

// RackLoc addresses one rack slot.
type RackLoc struct {
	Row  int
	Slot int
}

func (l RackLoc) String() string { return fmt.Sprintf("r%d.s%d", l.Row, l.Slot) }

// Floorplan is a hall plus per-rack occupancy state.
type Floorplan struct {
	Hall
	usedRU []int // indexed by rack index
}

// NewFloorplan validates the hall and returns an empty floorplan.
func NewFloorplan(h Hall) (*Floorplan, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &Floorplan{Hall: h, usedRU: make([]int, h.Rows*h.RacksPerRow)}, nil
}

// NumRacks returns the total number of rack slots.
func (f *Floorplan) NumRacks() int { return f.Rows * f.RacksPerRow }

// RackIndex converts a location to a dense rack index.
func (f *Floorplan) RackIndex(l RackLoc) int { return l.Row*f.RacksPerRow + l.Slot }

// LocOf converts a dense rack index back to a location.
func (f *Floorplan) LocOf(idx int) RackLoc {
	return RackLoc{Row: idx / f.RacksPerRow, Slot: idx % f.RacksPerRow}
}

// ReserveRU claims ru rack units in rack idx, failing when the rack is
// full (wrapping physerr.ErrCapacity) or when idx/ru are malformed
// (wrapping physerr.ErrOutOfRange). Placement uses this to pack switches.
func (f *Floorplan) ReserveRU(idx, ru int) error {
	if idx < 0 || idx >= len(f.usedRU) {
		return physerr.OutOfRange("floorplan: rack index %d outside [0,%d)", idx, len(f.usedRU))
	}
	if ru < 0 {
		return physerr.OutOfRange("floorplan: cannot reserve %d RU", ru)
	}
	if f.usedRU[idx]+ru > RackUnits {
		return physerr.Capacity("floorplan: rack %v full (%d + %d > %d RU)",
			f.LocOf(idx), f.usedRU[idx], ru, RackUnits)
	}
	f.usedRU[idx] += ru
	return nil
}

// ReleaseRU returns ru rack units to rack idx (decommissioning).
func (f *Floorplan) ReleaseRU(idx, ru int) {
	f.usedRU[idx] -= ru
	if f.usedRU[idx] < 0 {
		panic(fmt.Sprintf("floorplan: rack %v RU went negative", f.LocOf(idx)))
	}
}

// UsedRU reports the rack units consumed in rack idx.
func (f *Floorplan) UsedRU(idx int) int { return f.usedRU[idx] }

// Clone returns an independent copy of the floorplan: same hall, separate
// occupancy state. Parallel placement chains each mutate their own clone.
func (f *Floorplan) Clone() *Floorplan {
	return &Floorplan{Hall: f.Hall, usedRU: append([]int(nil), f.usedRU...)}
}

// CopyOccupancyFrom overwrites f's per-rack RU usage with src's. The two
// floorplans must share hall geometry; the winning annealing chain's state
// is installed back into the caller's floorplan this way.
func (f *Floorplan) CopyOccupancyFrom(src *Floorplan) {
	if len(f.usedRU) != len(src.usedRU) {
		panic(fmt.Sprintf("floorplan: CopyOccupancyFrom across halls (%d vs %d racks)",
			len(f.usedRU), len(src.usedRU)))
	}
	copy(f.usedRU, src.usedRU)
}
