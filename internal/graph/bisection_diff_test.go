package graph_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"physdep/internal/cli"
	"physdep/internal/graph"
	"physdep/internal/interchange"
)

// assertRefinementMatchesReference requires the cached-gain refinement
// and its reference to end on the same partition with the same cut bits
// and to leave their generators at the same state, for a few seeds.
func assertRefinementMatchesReference(t *testing.T, name string, g *graph.Graph, seeds int) {
	t.Helper()
	for s := uint64(1); s <= uint64(seeds); s++ {
		side, refSide, cut, refCut, next, refNext := graph.RefineBisectionPair(g, s, 0x6a1e5)
		if !slices.Equal(side, refSide) {
			t.Fatalf("%s seed %d: partitions differ from the reference", name, s)
		}
		if math.Float64bits(cut) != math.Float64bits(refCut) {
			t.Fatalf("%s seed %d: cut %v, reference %v", name, s, cut, refCut)
		}
		if next != refNext {
			t.Fatalf("%s seed %d: generator advanced differently from the reference", name, s)
		}
	}
}

// TestRefineBisectionMatchesReference pins the refinement to the
// recompute-everything reference on every CLI family at evaluate-miss
// sizes.
func TestRefineBisectionMatchesReference(t *testing.T) {
	jelly := cli.TopoParams{Name: "jellyfish", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1}
	docSrc, err := cli.BuildTopology(jelly)
	if err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(t.TempDir(), "fabric.json")
	if err := interchange.EmitFile(doc, interchange.FromTopology(docSrc)); err != nil {
		t.Fatal(err)
	}
	cases := map[string]cli.TopoParams{
		"fattree":       {Name: "fattree", K: 8, Rate: 100},
		"leafspine":     {Name: "leafspine", N: 64, Spines: 16, Net: 8, Radix: 16, Rate: 100},
		"jellyfish":     jelly,
		"xpander":       {Name: "xpander", D: 8, Lift: 8, Radix: 16, Rate: 100, Seed: 1},
		"flatbutterfly": {Name: "flatbutterfly", N: 8, K: 2, Radix: 8, Rate: 100},
		"fatclique":     {Name: "fatclique", D: 4, Lift: 4, K: 4, Radix: 8, Rate: 100},
		"slimfly":       {Name: "slimfly", Q: 5, Radix: 9, Rate: 100},
		"vl2":           {Name: "vl2", D: 16, Lift: 16, Radix: 16, Rate: 100},
		"flatrandom":    {Name: "flatrandom", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1},
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
		assertRefinementMatchesReference(t, fam, tp.Graph, 4)
	}
}

// TestRefineBisectionMatchesReferenceRandomMultigraphs pins the two over
// seeded random multigraphs with parallel edges, self-loops, tombstones
// and zero, fractional and 1e16 capacities — the cases where a cached
// gain summed in another order would round differently.
func TestRefineBisectionMatchesReferenceRandomMultigraphs(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xd1ff))
		// Odd seeds draw small dense multigraphs, where parallel edges
		// of mixed magnitude make the summation order visible.
		n, perNode := 2+rng.IntN(60), 4
		if seed%2 == 1 {
			n, perNode = 2+rng.IntN(7), 12
		}
		g := graph.New(n)
		for m := rng.IntN(perNode * n); m > 0; m-- {
			var c float64
			switch rng.IntN(4) {
			case 0: // zero: counts as 1
			case 1:
				c = float64(1 + rng.IntN(4))
			case 2:
				c = 0.05 + 3*rng.Float64()
			default:
				c = 1e16
			}
			id := g.AddEdge(rng.IntN(n), rng.IntN(n), c)
			if rng.IntN(6) == 0 {
				g.RemoveEdge(id)
			}
		}
		assertRefinementMatchesReference(t, fmt.Sprintf("random %d", seed), g, 3)
	}
}
