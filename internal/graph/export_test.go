package graph

import "math/rand/v2"

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
