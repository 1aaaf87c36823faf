package graph

import (
	"context"
	"math/rand/v2"

	"physdep/internal/par"
	"physdep/internal/physerr"
)

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

// refParallelSourcesMin is the source-count below which the reference
// sweep stays serial: under ~tens of sources the fan-out overhead exceeds
// the BFS work.
const refParallelSourcesMin = 24

// refScratch is one worker's reusable BFS buffers. The two slice headers
// are written back after every source (the queue may be regrown), so the
// pad keeps adjacent workers' headers off a shared cache line for the
// same reason apPartial is padded.
type refScratch struct {
	dist  []int
	queue []int
	_     [80]byte // pad 48 bytes of headers to 128
}

// refSweepSources is the sweep AllPairsStatsCtx ran before it went
// bit-parallel, kept verbatim as the differential test's reference: one
// scalar BFS per source, then a pass over nodes per source.
func (g *Graph) refSweepSources(ctx context.Context, sources, nodes []int, perSource func(i int, rowSum int64, rowReach int)) (PathStats, error) {
	// Freeze once before the fan-out: every per-source BFS then iterates
	// the packed rows, and the workers share one immutable snapshot.
	g.Freeze()
	accumulate := func(pt *apPartial, dist []int, u int) (int64, int) {
		var rowSum int64
		rowReach := 0
		for _, v := range nodes {
			if v == u {
				continue
			}
			d := dist[v]
			if d < 0 {
				pt.unreach++
				continue
			}
			rowReach++
			rowSum += int64(d)
			if d > pt.diam {
				pt.diam = d
			}
		}
		pt.sum += rowSum
		pt.reach += rowReach
		return rowSum, rowReach
	}
	var parts []apPartial
	if len(sources) < refParallelSourcesMin || par.Workers() == 1 {
		parts = make([]apPartial, 1)
		dist := make([]int, g.N)
		var queue []int
		cancellable := ctx.Done() != nil
		for i, u := range sources {
			if cancellable {
				if err := ctx.Err(); err != nil {
					return PathStats{}, physerr.Canceled(err)
				}
			}
			queue = g.BFSInto(u, dist, queue)
			rowSum, rowReach := accumulate(&parts[0], dist, u)
			if perSource != nil {
				perSource(i, rowSum, rowReach)
			}
		}
	} else {
		parts = make([]apPartial, par.Workers())
		scratch := make([]refScratch, len(parts))
		err := par.ForWorkerCtx(ctx, len(sources), func(wk, i int) error {
			sc := &scratch[wk]
			if sc.dist == nil {
				sc.dist = make([]int, g.N)
			}
			sc.queue = g.BFSInto(sources[i], sc.dist, sc.queue)
			rowSum, rowReach := accumulate(&parts[wk], sc.dist, sources[i])
			if perSource != nil {
				perSource(i, rowSum, rowReach)
			}
			return nil
		})
		if err != nil {
			return PathStats{}, err
		}
	}
	var st PathStats
	var sum int64
	for _, pt := range parts {
		sum += pt.sum
		st.Reachable += pt.reach
		st.Unreachable += pt.unreach
		if pt.diam > st.Diameter {
			st.Diameter = pt.diam
		}
	}
	if st.Reachable > 0 {
		st.MeanHops = float64(sum) / float64(st.Reachable)
	}
	return st, nil
}
