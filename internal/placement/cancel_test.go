package placement

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

func cancelFixture(t *testing.T) *Placement {
	t.Helper()
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOptimizeRestartsCtxPreCanceledLeavesPlacementUntouched checks the
// all-or-nothing contract for both the single-chain and multi-restart
// paths: a canceled optimize returns ErrCanceled, reports before==after,
// and leaves the placement exactly as it was.
func TestOptimizeRestartsCtxPreCanceledLeavesPlacementUntouched(t *testing.T) {
	for _, restarts := range []int{1, 4} {
		p := cancelFixture(t)
		origSlots := append([]int(nil), p.SlotOfRack...)
		origLen := p.CableLength()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before, after, err := OptimizeRestartsCtx(ctx, p, 50000, 1, restarts)
		if !errors.Is(err, physerr.ErrCanceled) {
			t.Fatalf("restarts=%d: got %v, want ErrCanceled", restarts, err)
		}
		if before != origLen || after != origLen {
			t.Errorf("restarts=%d: canceled run reported %v -> %v, want both %v",
				restarts, before, after, origLen)
		}
		for r, s := range p.SlotOfRack {
			if s != origSlots[r] {
				t.Fatalf("restarts=%d: rack %d moved %d -> %d under a canceled run",
					restarts, r, origSlots[r], s)
			}
		}
	}
}

// TestOptimizeRestartsCtxLiveUncanceledMatches: with a live cancellable
// context the multi-restart optimizer must land on the identical
// placement as under a context that cannot cancel.
func TestOptimizeRestartsCtxLiveUncanceledMatches(t *testing.T) {
	a := cancelFixture(t)
	b := cancelFixture(t)
	_, wantAfter, err := OptimizeRestartsCtx(context.Background(), a, 5000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, gotAfter, err := OptimizeRestartsCtx(ctx, b, 5000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gotAfter != wantAfter {
		t.Fatalf("cancellable after %v != uncancellable %v", gotAfter, wantAfter)
	}
	for r := range a.SlotOfRack {
		if a.SlotOfRack[r] != b.SlotOfRack[r] {
			t.Fatalf("rack %d differs: %d vs %d", r, a.SlotOfRack[r], b.SlotOfRack[r])
		}
	}
}
