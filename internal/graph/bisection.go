package graph

import (
	"context"
	"math/rand/v2"

	"physdep/internal/obs"
	"physdep/internal/par"
)

// BisectionEstimateCtx returns a heuristic upper bound on the bisection
// bandwidth of g: the minimum, over restarts, of the capacity crossing a
// balanced two-way partition found by randomized Kernighan–Lin-style
// pair-swap local search. It is an upper bound because any balanced cut
// witnesses one; the optimizer only tightens it.
//
// restarts controls how many random initial partitions are refined; they
// run in parallel. Each restart's seed pair is drawn from rng up front,
// so the answer depends only on (g, restarts, rng state), never on the
// worker count, and rng advances identically whether or not the run is
// canceled. Edge capacities of zero count as 1, matching MaxFlow's
// convention. ctx is checked as restarts are handed out (par contract);
// a canceled run returns an error matching physerr.ErrCanceled, its only
// failure.
func (g *Graph) BisectionEstimateCtx(ctx context.Context, restarts int, rng *rand.Rand) (float64, error) {
	if g.N < 2 || restarts < 1 {
		return 0, nil
	}
	defer obs.Time("graph.bisection")()
	obs.Add("graph.bisection.restarts", int64(restarts))
	// One frozen CSR view serves every restart; the packed rows keep the
	// exact adj slot order, so each restart's refinement (and float
	// accumulation order) matches the unfrozen kernel bit for bit.
	snap := g.Freeze()
	seeds := make([][2]uint64, restarts)
	for r := range seeds {
		seeds[r] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	cuts, err := par.MapCtx(ctx, restarts, func(r int) (float64, error) {
		return g.cutCapacity(g.refineBisection(snap, rand.New(rand.NewPCG(seeds[r][0], seeds[r][1])))), nil
	})
	if err != nil {
		return 0, err
	}
	best := cuts[0]
	for _, cut := range cuts[1:] {
		if cut < best {
			best = cut
		}
	}
	return best, nil
}

func edgeCap(e Edge) float64 {
	if e.Cap == 0 {
		return 1
	}
	return e.Cap
}

// refineBisection starts from a random balanced partition and greedily
// swaps node pairs across the cut while any swap reduces crossing
// capacity, and returns the final sides (true = B). It works
// Kernighan–Lin style: each pass offers every node a still on side A its
// best partner b among the nodes still on side B.
//
// The per-node gains are cached and a's row is charged into a scratch
// array, so the scan over b reads two floats per candidate instead of
// walking two CSR rows. A swap recomputes the gains of the two moved
// nodes and their neighbours from scratch in slot order, and the
// scratch sums a's parallel edges in slot order, so every total is the
// same expression on the same bits as recomputing both from the rows:
// the answer and the tie-breaks do not depend on integral capacities.
func (g *Graph) refineBisection(snap *Snapshot, rng *rand.Rand) []bool {
	side := make([]bool, g.N) // false = A, true = B
	perm := rng.Perm(g.N)
	for i, u := range perm {
		side[u] = i >= g.N/2
	}
	// gain(u) = (crossing capacity incident to u) - (internal capacity
	// incident to u); moving u across the cut changes the cut by -gain(u),
	// but we only do balanced pair swaps.
	gain := func(u int) float64 {
		gval := 0.0
		lo, hi := snap.off[u], snap.off[u+1]
		for i := lo; i < hi; i++ {
			w := int(snap.nbr[i])
			if w == u {
				continue
			}
			c := snap.caps[i]
			if c == 0 {
				c = 1 // MaxFlow's zero-cap convention, as edgeCap
			}
			if side[w] != side[u] {
				gval += c
			} else {
				gval -= c
			}
		}
		return gval
	}
	gains := make([]float64, g.N)
	for u := range gains {
		gains[u] = gain(u)
	}
	// regain refreshes the cached gains of u and its neighbours.
	regain := func(u int) {
		gains[u] = gain(u)
		for i := snap.off[u]; i < snap.off[u+1]; i++ {
			w := int(snap.nbr[i])
			gains[w] = gain(w)
		}
	}
	// between[v] is the capacity of a's edges to v while a is scanned.
	between := make([]float64, g.N)
	improved := true
	// Candidate lists, rebuilt (into reused buffers) and shuffled each
	// pass for tie-breaking diversity.
	as := make([]int, 0, g.N)
	bs := make([]int, 0, g.N)
	for pass := 0; improved && pass < 20; pass++ {
		improved = false
		as, bs = as[:0], bs[:0]
		for u := 0; u < g.N; u++ {
			if side[u] {
				bs = append(bs, u)
			} else {
				as = append(as, u)
			}
		}
		rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
		rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
		for _, a := range as {
			lo, hi := snap.off[a], snap.off[a+1]
			for i := lo; i < hi; i++ {
				c := snap.caps[i]
				if c == 0 {
					c = 1
				}
				between[snap.nbr[i]] += c
			}
			bestGain, bestB := 1e-9, -1
			ga := gains[a]
			for _, b := range bs {
				if !side[b] {
					continue // already swapped this pass
				}
				total := ga + gains[b] - 2*between[b]
				if total > bestGain {
					bestGain, bestB = total, b
				}
			}
			for i := lo; i < hi; i++ {
				between[snap.nbr[i]] = 0
			}
			if bestB >= 0 {
				side[a], side[bestB] = true, false
				regain(a)
				regain(bestB)
				improved = true
			}
		}
	}
	return side
}

// cutCapacity sums the capacity of the live edges side separates.
func (g *Graph) cutCapacity(side []bool) float64 {
	cut := 0.0
	for _, e := range g.Edges {
		if e.U == -1 || e.U == e.V {
			continue
		}
		if side[e.U] != side[e.V] {
			cut += edgeCap(e)
		}
	}
	return cut
}
