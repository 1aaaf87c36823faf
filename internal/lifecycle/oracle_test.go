package lifecycle

import (
	"math"
	"math/rand/v2"
	"testing"

	"physdep/internal/graph"
	"physdep/internal/par"
	"physdep/internal/solver"
	"physdep/internal/topology"
)

// exactSpliceCost solves one splice choice exactly: x[i] picks
// st.cand[i], a feasible x picks exactly need endpoint-disjoint edges,
// and the cost is spliceState.cost. The cost only grows as edges are
// added, so the cost of a valid prefix lower-bounds every completion;
// an over-full, conflicting or unfillable prefix is pruned outright.
func exactSpliceCost(t *testing.T, st *spliceState, need int) float64 {
	t.Helper()
	n := len(st.cand)
	// picked returns the chosen edges of x[:upto], or ok=false when two
	// of them share an endpoint.
	picked := func(x []bool, upto int) (ids []int, ok bool) {
		used := map[int]bool{}
		for i := 0; i < upto; i++ {
			if !x[i] {
				continue
			}
			e := st.t.Edges[st.cand[i]]
			if used[e.U] || used[e.V] {
				return nil, false
			}
			used[e.U], used[e.V] = true, true
			ids = append(ids, st.cand[i])
		}
		return ids, true
	}
	p := solver.BinaryProblem{
		N: n,
		Cost: func(x []bool) float64 {
			ids, _ := picked(x, n)
			return st.cost(ids)
		},
		Feasible: func(x []bool) bool {
			ids, ok := picked(x, n)
			return ok && len(ids) == need
		},
		Bound: func(x []bool, fixed int) float64 {
			ids, ok := picked(x, fixed)
			if !ok || len(ids) > need || len(ids)+n-fixed < need {
				return math.Inf(1)
			}
			return st.cost(ids)
		},
	}
	best, cost, exact := solver.SolveBinary(p, 1<<22)
	if !exact || best == nil {
		t.Fatalf("oracle: exact=%v best=%v over %d candidates", exact, best, n)
	}
	return cost
}

// TestSpliceChooserAgainstExactOracle checks the planner's hill-climbed
// splice choice against the exact optimum from solver.SolveBinary on
// small seeded Jellyfish and Xpander adds (at most 20 legal candidates,
// the planner's budget of 64 climb tries). The climb can never beat the
// optimum; how often it reaches it, and its worst gap, are pinned: it
// misses on 27 of 60 instances, by up to 5.1 minutes of floor work.
func TestSpliceChooserAgainstExactOracle(t *testing.T) {
	// A smaller floor than the planner's keeps the exact solver fast.
	floor := floorModel{ToRsPerRack: 2, Rows: 2, Cols: 4, RackPitch: 3, EndSlack: 1}
	const adds = 3
	var instances, hits int
	maxGap := 0.0
	run := func(name string, fabric *topology.Topology, g Grower, seed uint64) {
		work := fabric.CloneTopology()
		rng := rand.New(rand.NewPCG(seed, seed^plannerSeedMix))
		for k := 0; k < adds; k++ {
			climbSeed := par.SeedAt(seed^plannerSeedMix, k)
			chooser := func(t2 *topology.Topology, newID, need int, legal func(graph.Edge) bool) ([]topology.Rewire, error) {
				st, err := chooseSplices(floor, rng, climbSeed, t2, newID, need, legal)
				if err != nil {
					return nil, err
				}
				if len(st.cand) <= 20 {
					climbed := st.cost(st.chosen)
					opt := exactSpliceCost(t, st, need)
					if climbed < opt-1e-9 {
						t.Errorf("%s seed %d add %d: climb cost %v beats the exact optimum %v", name, seed, k, climbed, opt)
					}
					instances++
					if gap := climbed - opt; gap <= 1e-9 {
						hits++
					} else if gap > maxGap {
						maxGap = gap
					}
				}
				return applySplices(t2, newID, st.chosen), nil
			}
			if _, _, err := g.AddToR(work, k, chooser); err != nil {
				t.Fatalf("%s seed %d add %d: %v", name, seed, k, err)
			}
		}
	}
	for seed := uint64(1); seed <= 12; seed++ {
		jcfg := topology.JellyfishConfig{N: 8, K: 8, R: 4, Rate: 100, Seed: seed}
		jf, err := topology.Jellyfish(jcfg)
		if err != nil {
			t.Fatal(err)
		}
		run("jellyfish", jf, JellyfishGrower{Cfg: jcfg}, seed)
		xcfg := topology.XpanderConfig{D: 6, Lift: 1, ServerPorts: 4, Rate: 100, Seed: seed}
		xp, err := topology.Xpander(xcfg)
		if err != nil {
			t.Fatal(err)
		}
		run("xpander", xp, XpanderGrower{Cfg: xcfg}, seed)
	}
	// Deterministic for the seeds above. A change here means the chooser
	// or its cost moved: re-derive the numbers and say why in the commit.
	if instances != 60 || hits != 33 || math.Abs(maxGap-5.1) > 1e-9 {
		t.Errorf("%d instances, climb optimal on %d, largest gap %v min; pinned 60, 33, 5.1",
			instances, hits, maxGap)
	}
}
