package placement

import (
	"context"
	"slices"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/par"
	"physdep/internal/solver"
	"physdep/internal/topology"
)

func restartPlacement(t *testing.T) *Placement {
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

// TestOptimizeRestartsDeterministicAcrossWorkerCounts: the multi-restart
// annealer must pick the same winning chain — and install the same slot
// assignment — whether the chains ran serially or in parallel.
func TestOptimizeRestartsDeterministicAcrossWorkerCounts(t *testing.T) {
	layoutAt := func(workers int) ([]int, float64) {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		p := restartPlacement(t)
		_, after, err := OptimizeRestartsCtx(context.Background(), p, 3000, 7, 6)
		if err != nil {
			t.Fatal(err)
		}
		return append([]int(nil), p.SlotOfRack...), float64(after)
	}
	slots1, after1 := layoutAt(1)
	slots8, after8 := layoutAt(8)
	if after1 != after8 {
		t.Fatalf("final cable length differs: %v (workers=1) vs %v (workers=8)", after1, after8)
	}
	for r := range slots1 {
		if slots1[r] != slots8[r] {
			t.Fatalf("rack %d slot differs: %d vs %d", r, slots1[r], slots8[r])
		}
	}
}

// TestOptimizeRestartsNoWorseThanSingleChain: chain 0 replays the exact
// single-chain schedule, so the best-of-N result can never lose to
// a single chain with the same seed.
func TestOptimizeRestartsNoWorseThanSingleChain(t *testing.T) {
	ctx := context.Background()
	pSingle := restartPlacement(t)
	_, afterSingle, err := OptimizeRestartsCtx(ctx, pSingle, 3000, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	pMulti := restartPlacement(t)
	_, afterMulti, err := OptimizeRestartsCtx(ctx, pMulti, 3000, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if afterMulti > afterSingle {
		t.Fatalf("multi-restart ended at %v, worse than single-chain %v", afterMulti, afterSingle)
	}
}

// TestOptimizeRestartsSingleChainMatchesAnneal: restarts 0 and 1 run one
// chain through the restart machinery, and that chain is seeded with the
// caller's seed — so the installed layout must equal a direct AnnealCtx
// run on a clone with the same schedule.
func TestOptimizeRestartsSingleChainMatchesAnneal(t *testing.T) {
	const steps, seed = 3000, 7
	ref := restartPlacement(t).Clone()
	cfg := annealConfig(ref.CableLength(), steps, seed)
	if _, err := solver.AnnealCtx(context.Background(), newAnnealState(ref), cfg); err != nil {
		t.Fatal(err)
	}
	for _, restarts := range []int{0, 1} {
		p := restartPlacement(t)
		if _, _, err := OptimizeRestartsCtx(context.Background(), p, steps, seed, restarts); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.SlotOfRack, ref.SlotOfRack) {
			t.Errorf("restarts=%d: SlotOfRack %v, direct single chain gives %v", restarts, p.SlotOfRack, ref.SlotOfRack)
		}
	}
}

// TestOptimizeRestartsPreservesRUAccounting: the adopted winner's floor
// occupancy must match a from-scratch reservation of the final layout.
func TestOptimizeRestartsPreservesRUAccounting(t *testing.T) {
	p := restartPlacement(t)
	wantTotal := 0
	for i := 0; i < p.Floor.NumRacks(); i++ {
		wantTotal += p.Floor.UsedRU(i)
	}
	if _, _, err := OptimizeRestartsCtx(context.Background(), p, 2000, 3, 4); err != nil {
		t.Fatal(err)
	}
	gotTotal := 0
	used := 0
	for i := 0; i < p.Floor.NumRacks(); i++ {
		gotTotal += p.Floor.UsedRU(i)
		if p.Floor.UsedRU(i) > 0 {
			used++
		}
	}
	if gotTotal != wantTotal {
		t.Fatalf("total reserved RU changed: %d -> %d", wantTotal, gotTotal)
	}
	if used != p.NumRacks() {
		t.Fatalf("%d slots carry RU, want %d (one per logical rack)", used, p.NumRacks())
	}
}
