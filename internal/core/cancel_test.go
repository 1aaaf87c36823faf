package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

func TestEvaluateCtxPreCanceled(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := DefaultInput(ft, floorplan.DefaultHall(4, 12))
	in.PlacementSteps = 10000
	rep, err := EvaluateCtx(ctx, in)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if rep != nil {
		t.Fatal("canceled evaluation returned a non-nil report")
	}
}

// TestEvaluateCtxPreCanceledDoesNoWork: a context canceled before the
// call stops the evaluation before placement, so neither the annealer
// nor the cable planner is ever entered.
func TestEvaluateCtxPreCanceledDoesNoWork(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := DefaultInput(ft, floorplan.DefaultHall(4, 12))
	in.PlacementSteps = 1000
	counters := []string{"placement.optimize.calls", "cabling.plan.demands"}
	before := obs.TakeSnapshot().Counters
	rep, err := EvaluateCtx(ctx, in)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if rep != nil {
		t.Fatal("canceled evaluation returned a non-nil report")
	}
	after := obs.TakeSnapshot().Counters
	for _, name := range counters {
		if after[name] != before[name] {
			t.Errorf("%s moved from %d to %d under a canceled context", name, before[name], after[name])
		}
	}
}

// TestEvaluateCtxExpiredDeadline: an already-expired deadline classifies
// as ErrCanceled and keeps context.DeadlineExceeded reachable.
func TestEvaluateCtxExpiredDeadline(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err = EvaluateCtx(ctx, DefaultInput(ft, floorplan.DefaultHall(4, 12)))
	if !errors.Is(err, physerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestEvaluateCtxLiveUncanceledMatchesEvaluate: a live cancellable
// context must not move a single number in the report.
func TestEvaluateCtxLiveUncanceledMatchesEvaluate(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	in := DefaultInput(ft, floorplan.DefaultHall(4, 12))
	in.PlacementSteps = 2000
	in.PlacementRestarts = 2
	want, err := EvaluateCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := EvaluateCtx(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("cancellable report differs:\n got %+v\nwant %+v", *got, *want)
	}
}
