package solver

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"physdep/internal/physerr"
)

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestAnnealCtxPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := newSumState(10, rng)
	start := s.cost
	res, err := AnnealCtx(canceledCtx(), s, AnnealConfig{Steps: 100000, T0: 5, T1: 0.01, Seed: 1})
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if res.Accepted != 0 || s.cost != start {
		t.Fatalf("pre-canceled anneal did work: %+v, cost %v -> %v", res, start, s.cost)
	}
}

func TestAnnealRestartsCtxPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	states := []Annealable{newSumState(10, rng), newSumState(10, rng)}
	objectiveCalled := false
	best, _, err := AnnealRestartsCtx(canceledCtx(), states, AnnealConfig{Steps: 1000, T0: 100, T1: 0.1, Seed: 1},
		func(int) float64 { objectiveCalled = true; return 0 })
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if best != -1 {
		t.Errorf("canceled restarts returned best=%d, want -1", best)
	}
	if objectiveCalled {
		t.Error("objective called despite cancellation")
	}
}

// TestAnnealCtxLiveUncanceledMatchesAnneal: being cancellable (without
// firing) must not perturb the schedule — same seed, same trajectory.
func TestAnnealCtxLiveUncanceledMatchesAnneal(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	a := newSumState(30, rng)
	b := &sumState{vals: append([]int(nil), a.vals...), cost: a.cost}
	cfg := AnnealConfig{Steps: 5000, T0: 5, T1: 0.01, Seed: 9}
	want := must(AnnealCtx(context.Background(), a, cfg))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := AnnealCtx(ctx, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cancellable run %+v != uncancellable %+v", got, want)
	}
	if a.cost != b.cost {
		t.Fatalf("final costs diverge: %v vs %v", a.cost, b.cost)
	}
}

// must unwraps a kernel result computed under context.Background(),
// which cannot cancel, so the error is structurally nil.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
