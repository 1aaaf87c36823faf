package graph

import (
	"context"
	"math/rand/v2"

	"physdep/internal/obs"
	"physdep/internal/par"
)

// BisectionEstimateCtx returns a heuristic upper bound on the bisection
// bandwidth of g: the minimum, over restarts, of the capacity crossing a
// balanced two-way partition found by randomized Fiduccia–Mattheyses-style
// local search. It is an upper bound because any balanced cut witnesses
// one; the optimizer only tightens it.
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
		return g.refineBisection(snap, rand.New(rand.NewPCG(seeds[r][0], seeds[r][1]))), nil
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
// capacity. The inner gain/capacity scans iterate snap's packed rows —
// the hot loops of the whole estimate.
func (g *Graph) refineBisection(snap *Snapshot, rng *rand.Rand) float64 {
	side := make([]bool, g.N) // false = A, true = B
	perm := rng.Perm(g.N)
	for i, u := range perm {
		side[u] = i >= g.N/2
	}
	// gain[u] = (crossing capacity incident to u) - (internal capacity
	// incident to u); moving u across the cut changes the cut by -gain[u],
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
	capBetween := func(u, v int) float64 {
		c := 0.0
		lo, hi := snap.off[u], snap.off[u+1]
		for i := lo; i < hi; i++ {
			if int(snap.nbr[i]) == v {
				cc := snap.caps[i]
				if cc == 0 {
					cc = 1
				}
				c += cc
			}
		}
		return c
	}
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
			bestGain, bestB := 1e-9, -1
			ga := gain(a)
			for _, b := range bs {
				if !side[b] {
					continue // already swapped this pass
				}
				total := ga + gain(b) - 2*capBetween(a, b)
				if total > bestGain {
					bestGain, bestB = total, b
				}
			}
			if bestB >= 0 {
				side[a], side[bestB] = true, false
				improved = true
			}
		}
	}
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
