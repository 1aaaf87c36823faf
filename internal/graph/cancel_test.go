package graph

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"physdep/internal/par"
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

// TestAllPairsStatsCtxDeadlineOnLongChain: on a 2^18-node chain one
// batch of 64 sources runs for about 2^17 BFS levels, so a deadline must
// stop the sweep between levels, not wait for the batch to end.
func TestAllPairsStatsCtxDeadlineOnLongChain(t *testing.T) {
	const n = 1 << 18
	g := New(n)
	for u := 1; u < n; u++ {
		g.AddEdge(u-1, u, 1)
	}
	g.Freeze()
	for _, w := range []int{1, 2} {
		par.SetWorkers(w)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		deadline, _ := ctx.Deadline()
		_, err := g.AllPairsStatsCtx(ctx, nil)
		late := time.Since(deadline)
		cancel()
		par.SetWorkers(0)
		if !errors.Is(err, physerr.ErrCanceled) {
			t.Fatalf("workers %d: got %v, want ErrCanceled", w, err)
		}
		if late > 200*time.Millisecond {
			t.Fatalf("workers %d: sweep returned %v after its deadline", w, late)
		}
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

func TestSpectralGapCtxPreCanceled(t *testing.T) {
	_, err := testExpander(700).SpectralGapCtx(canceledCtx(), 200, rand.New(rand.NewPCG(1, 2)))
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

	// 700 nodes span several matvec blocks, so 4 workers fan out under
	// ctx; the generator must also end in the same state.
	for _, w := range []int{1, 4} {
		par.SetWorkers(w)
		wantRng, gotRng := rand.New(rand.NewPCG(3, 4)), rand.New(rand.NewPCG(3, 4))
		wantS := must(testExpander(700).SpectralGapCtx(context.Background(), 200, wantRng))
		gotS, err := testExpander(700).SpectralGapCtx(ctx, 200, gotRng)
		par.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotS) != math.Float64bits(wantS) || gotRng.Uint64() != wantRng.Uint64() {
			t.Fatalf("workers %d: cancellable spectral gap %v != uncancellable %v", w, gotS, wantS)
		}
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
