package graph

import (
	"context"
	"math/rand/v2"
)

// RefineBisectionPair runs one restart of the bisection refinement and of
// its reference on g, each with its own PCG seeded (s1, s2). It returns
// both final partitions, both cuts, and the next draw of each generator,
// so a differential test can require equal sides, equal cut bits and
// equally advanced RNG streams.
func RefineBisectionPair(g *Graph, s1, s2 uint64) (side, refSide []bool, cut, refCut float64, next, refNext uint64) {
	snap := g.Freeze()
	rng, refRng := rand.New(rand.NewPCG(s1, s2)), rand.New(rand.NewPCG(s1, s2))
	side, refSide = g.refineBisection(snap, rng), g.refRefineBisection(snap, refRng)
	return side, refSide, g.cutCapacity(side), g.cutCapacity(refSide), rng.Uint64(), refRng.Uint64()
}

// SweepRow is one source's per-index record from a sweep: its row sum
// and reachable count.
type SweepRow struct {
	Sum   int64
	Reach int
}

// SweepSourcesPair runs the bit-parallel sweep and its reference over the
// same sources and node set, returning both PathStats and both per-index
// row records. The sweep runs twice: bare is its PathStats with no row
// callback, the totals-only path AllPairsStatsCtx takes, and st is its
// PathStats with one.
func SweepSourcesPair(g *Graph, sources, nodes []int) (bare, st, refSt PathStats, rows, refRows []SweepRow, err error) {
	rows, refRows = make([]SweepRow, len(sources)), make([]SweepRow, len(sources))
	record := func(into []SweepRow) func(int, int64, int) {
		return func(i int, sum int64, reach int) { into[i] = SweepRow{sum, reach} }
	}
	if bare, err = g.sweepSources(context.Background(), sources, nodes, nil); err != nil {
		return
	}
	if st, err = g.sweepSources(context.Background(), sources, nodes, record(rows)); err != nil {
		return
	}
	refSt, err = g.refSweepSources(context.Background(), sources, nodes, record(refRows))
	return
}
