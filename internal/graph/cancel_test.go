package graph

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

func TestAllPairsStatsCtxPreCanceled(t *testing.T) {
	g := complete(64)
	nodes := make([]int, g.N)
	for i := range nodes {
		nodes[i] = i
	}
	_, err := g.AllPairsStatsCtx(canceledCtx(), nodes)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestBisectionEstimateCtxPreCanceled(t *testing.T) {
	g := complete(16)
	rng := rand.New(rand.NewPCG(1, 2))
	_, err := g.BisectionEstimateCtx(canceledCtx(), 4, rng)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestCtxVariantsMatchContextFree: a live, never-fired cancellable
// context must not move a number versus context.Background().
func TestCtxVariantsMatchContextFree(t *testing.T) {
	g := cycle(40)
	nodes := make([]int, g.N)
	for i := range nodes {
		nodes[i] = i
	}
	want := must(g.AllPairsStatsCtx(context.Background(), nodes))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := g.AllPairsStatsCtx(ctx, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cancellable run %+v != uncancellable %+v", got, want)
	}

	wantB := must(cycle(16).BisectionEstimateCtx(context.Background(), 4, rand.New(rand.NewPCG(7, 7))))
	gotB, err := cycle(16).BisectionEstimateCtx(ctx, 4, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB {
		t.Fatalf("cancellable bisection %v != uncancellable %v", gotB, wantB)
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
