package graph

import "math/rand/v2"

// refRefineBisection is the refinement BisectionEstimateCtx ran before
// the gains were cached, kept verbatim except that it returns the final
// sides instead of the cut, as the differential test's reference: every
// (a, b) pair recomputes gain(b) and capBetween(a, b) from the CSR rows.
func (g *Graph) refRefineBisection(snap *Snapshot, rng *rand.Rand) []bool {
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
	return side
}
