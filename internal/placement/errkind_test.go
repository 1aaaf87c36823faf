package placement

import (
	"errors"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/physerr"
)

// TestGreedyErrorKinds pins the classification contract: a well-formed
// request that does not fit the hall, for want of slots or of rack
// units, is a capacity failure.
func TestGreedyErrorKinds(t *testing.T) {
	ft := smallFatTree(t)

	t.Run("hall too small is capacity", func(t *testing.T) {
		f := newFloor(t, 1, 5)
		_, err := Greedy(ft, f, Config{})
		if !errors.Is(err, physerr.ErrCapacity) {
			t.Fatalf("err = %v, want ErrCapacity", err)
		}
	})
	t.Run("rack overpacked is capacity", func(t *testing.T) {
		f := newFloor(t, 3, 10)
		// Leave one free RU per rack: no switch fits.
		for i := 0; i < f.NumRacks(); i++ {
			if err := f.ReserveRU(i, floorplan.RackUnits-1); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Greedy(ft, f, Config{})
		if !errors.Is(err, physerr.ErrCapacity) {
			t.Fatalf("err = %v, want ErrCapacity", err)
		}
	})
}
