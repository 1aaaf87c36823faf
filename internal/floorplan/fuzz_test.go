package floorplan

import (
	"errors"
	"testing"

	"physdep/internal/physerr"
)

// FuzzRouteBetween checks the checked routing boundary: arbitrary hall
// shapes and rack locations must yield either a well-formed route or an
// error wrapping physerr.ErrOutOfRange — never a panic or an index fault.
// The hall dimensions are folded into a small range so valid cases stay
// cheap; the locations are raw, which is exactly the regression shape for
// the old out-of-hall panic.
func FuzzRouteBetween(f *testing.F) {
	f.Add(3, 10, 0, 0, 2, 9)
	f.Add(1, 1, 0, 0, 0, 0)
	// Regression seeds: the four out-of-range sides that used to panic.
	f.Add(3, 10, -1, 0, 0, 0)
	f.Add(3, 10, 0, -1, 0, 0)
	f.Add(3, 10, 0, 0, 3, 0)
	f.Add(3, 10, 0, 0, 0, 10)
	f.Fuzz(func(t *testing.T, rows, slots, r1, s1, r2, s2 int) {
		rows, slots = rows%40, slots%40
		fp, err := NewFloorplan(DefaultHall(rows, slots))
		if err != nil {
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("NewFloorplan(%dx%d): error kind = %v, want ErrOutOfRange", rows, slots, err)
			}
			return
		}
		a, b := RackLoc{Row: r1, Slot: s1}, RackLoc{Row: r2, Slot: s2}
		route, err := fp.RouteBetween(a, b)
		if err != nil {
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("RouteBetween(%v, %v): error kind = %v, want ErrOutOfRange", a, b, err)
			}
			return
		}
		if route.Length < 0 {
			t.Fatalf("RouteBetween(%v, %v): negative length %v", a, b, route.Length)
		}
		// A valid checked route must agree with the length-only path,
		// and its segment list is sized exactly.
		if got := fp.MustRouteLength(a, b); got != route.Length {
			t.Fatalf("RouteBetween and MustRouteLength disagree: %v vs %v", route.Length, got)
		}
		if len(route.Segments) != cap(route.Segments) {
			t.Fatalf("RouteBetween(%v, %v): %d segments in a slice of capacity %d", a, b, len(route.Segments), cap(route.Segments))
		}
	})
}
