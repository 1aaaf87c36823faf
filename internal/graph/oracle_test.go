package graph_test

import (
	"context"
	"math"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"physdep/internal/cli"
	"physdep/internal/graph"
	"physdep/internal/interchange"
)

// edgeConnectivity is λ(g) by max-flow: the minimum over t ≠ 0 of the
// node-0-to-t max-flow. Every cut with both sides non-empty separates
// node 0 from some t, so λ is the smallest capacity any such cut can
// have. MaxFlow counts zero capacities as 1, as the bisection estimate
// does. Graphs with fewer than two nodes have no cut; λ is 0.
func edgeConnectivity(g *graph.Graph) float64 {
	if g.N < 2 {
		return 0
	}
	lambda := math.Inf(1)
	for t := 1; t < g.N; t++ {
		lambda = math.Min(lambda, g.MaxFlow(0, t))
	}
	return lambda
}

func TestEdgeConnectivityLowerBound(t *testing.T) {
	ring := graph.New(8)
	for i := 0; i < 8; i++ {
		ring.AddEdge(i, (i+1)%8, 1)
	}
	k5 := graph.New(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			k5.AddEdge(i, j, 1)
		}
	}
	// Two triangles joined by one zero-capacity bridge (counted as 1).
	bridged := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		bridged.AddEdge(e[0], e[1], 3)
	}
	bridged.AddEdge(2, 3, 0)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want float64
	}{{"cycle8", ring, 2}, {"K5", k5, 4}, {"bridged", bridged, 1}} {
		if got := edgeConnectivity(c.g); got != c.want {
			t.Errorf("%s: λ = %v, want %v", c.name, got, c.want)
		}
	}
}

// checkBisectionAboveLambda asserts the soundness property the bisection
// estimate must keep under any refinement strategy: a balanced cut is a
// cut, so its capacity is at least λ(g). The slack absorbs float
// rounding between the two sums on fractional capacities.
func checkBisectionAboveLambda(t *testing.T, name string, g *graph.Graph, seed uint64) {
	t.Helper()
	lambda := edgeConnectivity(g)
	for _, restarts := range []int{1, 4} {
		est, err := g.BisectionEstimateCtx(context.Background(), restarts, rand.New(rand.NewPCG(seed, 11)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if est < lambda-1e-9*math.Max(1, lambda) {
			t.Errorf("%s (restarts %d): bisection estimate %v below edge connectivity %v", name, restarts, est, lambda)
		}
	}
}

// TestBisectionEstimateAboveMaxFlow runs the property over every CLI
// topology family at small size.
func TestBisectionEstimateAboveMaxFlow(t *testing.T) {
	docSrc, err := cli.BuildTopology(cli.TopoParams{Name: "jellyfish", N: 16, Radix: 8, Net: 4, Rate: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(t.TempDir(), "fabric.json")
	if err := interchange.EmitFile(doc, interchange.FromTopology(docSrc)); err != nil {
		t.Fatal(err)
	}
	cases := map[string]cli.TopoParams{
		"fattree":       {Name: "fattree", K: 4, Rate: 100},
		"leafspine":     {Name: "leafspine", N: 8, Spines: 4, Net: 4, Radix: 16, Rate: 100},
		"jellyfish":     {Name: "jellyfish", N: 20, Radix: 12, Net: 6, Rate: 100, Seed: 1},
		"xpander":       {Name: "xpander", D: 4, Lift: 3, Radix: 12, Rate: 100, Seed: 1},
		"flatbutterfly": {Name: "flatbutterfly", N: 4, K: 2, Radix: 8, Rate: 100},
		"fatclique":     {Name: "fatclique", D: 3, Lift: 3, K: 3, Radix: 8, Rate: 100},
		"slimfly":       {Name: "slimfly", Q: 5, Radix: 9, Rate: 100},
		"vl2":           {Name: "vl2", D: 4, Lift: 4, Radix: 16, Rate: 10},
		"flatrandom":    {Name: "flatrandom", N: 24, Radix: 12, Net: 6, Rate: 100, Seed: 1},
		"file":          {Name: "file", File: doc},
	}
	for _, fam := range cli.Families() {
		p, ok := cases[fam]
		if !ok {
			t.Errorf("family %q has no case", fam)
			continue
		}
		tp, err := cli.BuildTopology(p)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		checkBisectionAboveLambda(t, fam, tp.Graph, 5)
	}
}

// TestBisectionEstimateAboveMaxFlowRandomMultigraphs runs the property
// over seeded random multigraphs: parallel edges, self-loops, zero and
// fractional capacities, and removed-edge tombstones.
func TestBisectionEstimateAboveMaxFlowRandomMultigraphs(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xb15ec7))
		n := 2 + rng.IntN(11)
		g := graph.New(n)
		for m := rng.IntN(3 * n); m > 0; m-- {
			var c float64
			switch rng.IntN(3) {
			case 0: // zero: counts as 1
			case 1:
				c = float64(1 + rng.IntN(4))
			default:
				c = 0.05 + 3*rng.Float64()
			}
			id := g.AddEdge(rng.IntN(n), rng.IntN(n), c)
			if rng.IntN(6) == 0 {
				g.RemoveEdge(id)
			}
		}
		checkBisectionAboveLambda(t, "random", g, seed)
	}
}
