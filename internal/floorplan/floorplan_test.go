package floorplan

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"physdep/internal/physerr"
	"physdep/internal/units"
)

func testHall(t *testing.T, rows, slots int) *Floorplan {
	t.Helper()
	f, err := NewFloorplan(DefaultHall(rows, slots))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFloorplanRejectsEmpty(t *testing.T) {
	if _, err := NewFloorplan(DefaultHall(0, 5)); err == nil {
		t.Error("0 rows accepted")
	}
	if _, err := NewFloorplan(DefaultHall(MaxRacks, 2)); err == nil {
		t.Error("hall over MaxRacks accepted")
	}
}

func TestRackIndexRoundTrip(t *testing.T) {
	f := testHall(t, 4, 10)
	for idx := 0; idx < f.NumRacks(); idx++ {
		if got := f.RackIndex(f.LocOf(idx)); got != idx {
			t.Fatalf("round trip %d -> %v -> %d", idx, f.LocOf(idx), got)
		}
	}
}

func TestReserveRU(t *testing.T) {
	f := testHall(t, 1, 1)
	if err := f.ReserveRU(0, 40); err != nil {
		t.Fatal(err)
	}
	if err := f.ReserveRU(0, 3); err == nil {
		t.Error("overfilled rack accepted")
	}
	f.ReleaseRU(0, 40)
	if got := f.UsedRU(0); got != 0 {
		t.Errorf("UsedRU = %d after release, want 0", got)
	}
}

func TestIntraRackRoute(t *testing.T) {
	f := testHall(t, 2, 4)
	r, err := f.RouteBetween(RackLoc{0, 1}, RackLoc{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IntraRack || r.Length != intraRackLen || len(r.Segments) != 0 {
		t.Errorf("intra-rack route = %+v", r)
	}
}

func TestSameRowRoute(t *testing.T) {
	f := testHall(t, 2, 10)
	r, err := f.RouteBetween(RackLoc{0, 2}, RackLoc{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2 risers (2.5 each) + 3 slots * 0.7, times slack 1.15.
	want := units.Meters((2*2.5 + 3*0.7) * 1.15)
	if diff := float64(r.Length - want); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("length = %v, want %v", r.Length, want)
	}
	if len(r.Segments) != 3 {
		t.Errorf("segments = %v, want 3 row spans", r.Segments)
	}
}

func TestCrossRowRouteChoosesShorterSpine(t *testing.T) {
	f := testHall(t, 3, 10)
	// Both racks near the right end: route must use the right spine.
	r, err := f.RouteBetween(RackLoc{0, 8}, RackLoc{2, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Right run = (9-8)+(9-9) = 1 slot; 2 rows of row pitch.
	want := units.Meters((2*2.5 + 1*0.7 + 2*1.8) * 1.15)
	if diff := float64(r.Length - want); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("length = %v, want %v", r.Length, want)
	}
	// Segments: row 0 slot 8→9 (1 segment), two right-spine spans, row 2
	// has zero spans (already at end).
	if len(r.Segments) != 3 {
		t.Errorf("segments = %v, want 3", r.Segments)
	}
}

func TestRouteSymmetry(t *testing.T) {
	f := testHall(t, 4, 8)
	a, b := RackLoc{1, 2}, RackLoc{3, 6}
	ra, rb := f.route(a, b), f.route(b, a)
	if ra.Length != rb.Length {
		t.Errorf("asymmetric route length: %v vs %v", ra.Length, rb.Length)
	}
	if len(ra.Segments) != len(rb.Segments) {
		t.Errorf("asymmetric segment count: %d vs %d", len(ra.Segments), len(rb.Segments))
	}
}

func TestRouteOutOfRangeReturnsError(t *testing.T) {
	f := testHall(t, 2, 2)
	for _, pair := range [][2]RackLoc{
		{{0, 0}, {5, 0}},
		{{5, 0}, {0, 0}},
		{{0, -1}, {0, 0}},
		{{0, 0}, {-3, 7}},
	} {
		if _, err := f.RouteBetween(pair[0], pair[1]); !errors.Is(err, physerr.ErrOutOfRange) {
			t.Errorf("RouteBetween(%v, %v) err = %v, want ErrOutOfRange", pair[0], pair[1], err)
		}
	}
}

func TestMustRouteLengthPanicsOutOfHall(t *testing.T) {
	f := testHall(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rack did not panic")
		}
	}()
	f.MustRouteLength(RackLoc{0, 0}, RackLoc{5, 0})
}

func TestSegmentIDsDisjoint(t *testing.T) {
	f := testHall(t, 3, 5)
	seen := map[int]bool{}
	for r := 0; r < 3; r++ {
		for s := 0; s < 4; s++ {
			id := f.rowSegment(r, s)
			if seen[id] {
				t.Fatalf("duplicate segment id %d", id)
			}
			seen[id] = true
		}
	}
	for r := 0; r < 2; r++ {
		for end := 0; end < 2; end++ {
			id := f.spineSegment(r, end)
			if seen[id] {
				t.Fatalf("duplicate spine segment id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != f.NumTraySegments() {
		t.Errorf("segment count %d != NumTraySegments %d", len(seen), f.NumTraySegments())
	}
}

func TestTrayLoadAccounting(t *testing.T) {
	f := testHall(t, 2, 6)
	tl := NewTrayLoad(f)
	r := f.route(RackLoc{0, 0}, RackLoc{0, 3})
	tl.Add(r, 100)
	tl.Add(r, 100)
	for _, s := range r.Segments {
		if tl.Used(s) != 200 {
			t.Errorf("segment %d used = %v, want 200", s, tl.Used(s))
		}
	}
	if tl.PeakUtilization() > 1 {
		t.Errorf("peak utilization = %v before the budget is blown", tl.PeakUtilization())
	}
	tl.Add(r, TrayCapacity) // blow the budget
	if tl.PeakUtilization() <= 1 {
		t.Errorf("peak utilization = %v, want > 1", tl.PeakUtilization())
	}
}

func TestWalkingDistance(t *testing.T) {
	f := testHall(t, 3, 10)
	if d := f.WalkingDistance(RackLoc{0, 0}, RackLoc{0, 0}); d != 0 {
		t.Errorf("zero walk = %v", d)
	}
	if d := f.WalkingDistance(RackLoc{0, 2}, RackLoc{0, 7}); d != units.Meters(5*0.7) {
		t.Errorf("same-row walk = %v, want 3.5", d)
	}
	got := f.WalkingDistance(RackLoc{0, 1}, RackLoc{2, 0})
	want := units.Meters(1*0.7 + 2*1.8)
	if diff := float64(got - want); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cross-row walk = %v, want %v", got, want)
	}
}

// Property: route lengths satisfy the triangle-ish inequality with respect
// to the hall bounds, are positive, and tray segments are always in range.
func TestQuickRouteBounds(t *testing.T) {
	f := testHall(t, 5, 12)
	maxLen := float64(2*RiserLength+
		units.Meters(2*(f.RacksPerRow-1))*RackPitch+
		units.Meters(f.Rows-1)*RowPitch) * SlackFactor
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		a := RackLoc{Row: rng.IntN(5), Slot: rng.IntN(12)}
		b := RackLoc{Row: rng.IntN(5), Slot: rng.IntN(12)}
		r := f.route(a, b)
		if r.Length <= 0 || float64(r.Length) > maxLen+1e-9 {
			return false
		}
		if f.MustRouteLength(a, b) != r.Length {
			return false
		}
		for _, s := range r.Segments {
			if s < 0 || s >= f.NumTraySegments() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRouteMatchesReference pins route and WalkingDistance to their
// references over every pair of locations in halls of several shapes:
// equal length and distance bits and equal segment lists.
func TestRouteMatchesReference(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 5}, {4, 1}, {3, 10}, {6, 16}} {
		f := testHall(t, dims[0], dims[1])
		for i := 0; i < f.NumRacks(); i++ {
			for j := 0; j < f.NumRacks(); j++ {
				a, b := f.LocOf(i), f.LocOf(j)
				got, want := f.route(a, b), f.refRoute(a, b)
				if math.Float64bits(float64(got.Length)) != math.Float64bits(float64(want.Length)) ||
					got.IntraRack != want.IntraRack || got.From != want.From || got.To != want.To ||
					!slices.Equal(got.Segments, want.Segments) {
					t.Fatalf("%v hall: route(%v, %v) = %+v, reference %+v", dims, a, b, got, want)
				}
				if d, ref := f.WalkingDistance(a, b), f.refWalkingDistance(a, b); math.Float64bits(float64(d)) != math.Float64bits(float64(ref)) {
					t.Fatalf("%v hall: WalkingDistance(%v, %v) = %v, reference %v", dims, a, b, d, ref)
				}
			}
		}
	}
}

// TestRouteBetweenAllocs holds RouteBetween to at most one allocation
// per route, its exactly sized segment list, over every pair of racks in
// the 6×16 hall.
func TestRouteBetweenAllocs(t *testing.T) {
	f := testHall(t, 6, 16)
	n := f.NumRacks()
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if _, err := f.RouteBetween(f.LocOf(i), f.LocOf(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if routes := float64(n * n); allocs > routes {
		t.Errorf("RouteBetween: %.0f allocs for %.0f routes, ceiling 1 per route", allocs, routes)
	}
}
