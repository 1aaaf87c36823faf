package deploy

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/physerr"
)

func TestExecuteCtxPreCanceled(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteCtx(ctx, dp, fx.model, fx.floor, ExecOptions{Techs: 4, Seed: 7})
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestExecuteCtxLiveUncanceledMatches: a cancellable-but-quiet context
// must schedule identically to the uncancellable path.
func TestExecuteCtxLiveUncanceledMatches(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	want, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := ExecuteCtx(ctx, dp, fx.model, fx.floor, ExecOptions{Techs: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.LaborMinutes != want.LaborMinutes ||
		got.Reworks != want.Reworks || got.Connections != want.Connections {
		t.Fatalf("cancellable schedule %+v != uncancellable %+v", got, want)
	}
}
