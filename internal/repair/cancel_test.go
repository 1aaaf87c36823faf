package repair

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/physerr"
)

func TestSimulateCtxPreCanceled(t *testing.T) {
	sys, err := SwitchFleet(4, 32, 8, 2000, 500, 60, 120, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateCtx(ctx, sys, 8760, 4, 1); !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("Simulate: got %v, want ErrCanceled", err)
	}
	if _, err := SimulateManyCtx(ctx, sys, 8760, 4, 8, 1); !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("SimulateMany: got %v, want ErrCanceled", err)
	}
}

// TestSimulateCtxLiveUncanceledMatches: a cancellable-but-quiet context
// must reproduce the uncancellable run exactly — same failures, same
// availability, to the last bit.
func TestSimulateCtxLiveUncanceledMatches(t *testing.T) {
	sys, err := SwitchFleet(4, 32, 8, 2000, 500, 60, 120, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SimulateCtx(context.Background(), sys, 8760, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := SimulateCtx(ctx, sys, 8760, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cancellable run %+v != uncancellable %+v", got, want)
	}
}
