package trafficsim

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/physerr"
	"physdep/internal/topology"
)

func TestKSPThroughputCtxPreCanceled(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := Uniform(len(ft.ToRs()), 100)
	_, err = KSPThroughputCtx(ctx, ft, m, JellyfishK)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestFailureDegradationCtxPreCanceled(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := Uniform(len(ft.ToRs()), 100)
	pts, err := FailureDegradationCtx(ctx, ft, m, []float64{0, 0.1}, 2, false, 7)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if pts != nil {
		t.Fatalf("canceled run returned points: %v", pts)
	}
}

// TestFailureDegradationCtxLiveUncanceledMatches pins the hand-out
// contract: a sweep that completes under a live cancellable context is
// bit-identical to the uncancellable sweep (per-trial reseeding makes
// every trial independent of how many ran before it).
func TestFailureDegradationCtxLiveUncanceledMatches(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(len(ft.ToRs()), 100)
	fracs := []float64{0, 0.05, 0.1}
	want, err := FailureDegradationCtx(context.Background(), ft, m, fracs, 3, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := FailureDegradationCtx(ctx, ft, m, fracs, 3, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: cancellable %+v != uncancellable %+v", i, got[i], want[i])
		}
	}
}

// TestKSPThroughputCtxLiveUncanceledMatches: the §6 contract under a
// live cancellable context — alpha must be bit-identical to the
// uncancellable solve.
func TestKSPThroughputCtxLiveUncanceledMatches(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(len(ft.ToRs()), 100)
	want, err := KSPThroughputCtx(context.Background(), ft, m, JellyfishK)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := KSPThroughputCtx(ctx, ft, m, JellyfishK)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cancellable alpha %v != uncancellable %v", got, want)
	}
}
