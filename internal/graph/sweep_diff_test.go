package graph_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"physdep/internal/cli"
	"physdep/internal/graph"
	"physdep/internal/interchange"
	"physdep/internal/par"
)

// sweepWorkers are the worker counts every sweep case runs at: the
// serial loop and a fan-out wider than the batches of small cases.
var sweepWorkers = []int{1, 4}

// assertSweepMatchesReference requires the bit-parallel sweep and its
// reference to give equal PathStats and equal per-index rows, at every
// worker count in sweepWorkers. The sweep's PathStats must match both
// with a row callback and without one. It returns the reference stats.
func assertSweepMatchesReference(t *testing.T, name string, g *graph.Graph, sources, nodes []int) (refSt graph.PathStats) {
	t.Helper()
	for _, w := range sweepWorkers {
		par.SetWorkers(w)
		var err error
		refSt, err = sweepMatchesReference(g, sources, nodes)
		par.SetWorkers(0)
		if err != nil {
			t.Fatalf("%s workers %d: %v", name, w, err)
		}
	}
	return refSt
}

// sweepMatchesReference runs graph.SweepSourcesPair and returns the
// reference stats, with an error naming the first difference.
func sweepMatchesReference(g *graph.Graph, sources, nodes []int) (graph.PathStats, error) {
	bare, st, refSt, rows, refRows, err := graph.SweepSourcesPair(g, sources, nodes)
	switch {
	case err != nil:
	case bare != refSt:
		err = fmt.Errorf("stats without rows %+v, reference %+v", bare, refSt)
	case st != refSt:
		err = fmt.Errorf("stats with rows %+v, reference %+v", st, refSt)
	case !slices.Equal(rows, refRows):
		err = errors.New("per-source rows differ from the reference")
	}
	return refSt, err
}

// TestSweepMatchesReference pins the sweep to the one-BFS-per-source
// reference on every CLI family, over its ToRs (the set the stats
// report) and over all nodes.
func TestSweepMatchesReference(t *testing.T) {
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
		"flatrandom":    {Name: "flatrandom", N: 200, Radix: 16, Net: 8, Rate: 100, Seed: 1},
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
		tors := tp.ToRs()
		assertSweepMatchesReference(t, fam+" tors", tp.Graph, tors, tors)
		all := make([]int, tp.N)
		for i := range all {
			all[i] = i
		}
		assertSweepMatchesReference(t, fam+" all", tp.Graph, all, all)
	}
}

// TestSweepMatchesReferenceRandomMultigraphs pins the two over seeded
// random multigraphs that are often disconnected and carry self-loops,
// parallel edges and removed edges. The node set has duplicates and
// leaves some nodes out, and the sources, drawn from it, number 1, 63,
// 64, 65 or 200 — the batch edges. A ring and a path, swept exhaustively
// and from those source counts, cover diameters in the thousands.
func TestSweepMatchesReferenceRandomMultigraphs(t *testing.T) {
	counts := []int{1, 63, 64, 65, 200}
	split := 0 // cases with unreachable pairs
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		n := 2 + rng.IntN(300)
		g := graph.New(n)
		// About one edge per node: sparse enough to leave several
		// components.
		for m := rng.IntN(n + n/2); m > 0; m-- {
			u := rng.IntN(n)
			v := u
			if rng.IntN(8) != 0 {
				v = rng.IntN(n)
			}
			id := g.AddEdge(u, v, 1)
			if rng.IntN(3) == 0 {
				g.AddEdge(u, v, 1) // parallel edge
			}
			if rng.IntN(6) == 0 {
				g.RemoveEdge(id)
			}
		}
		// Node set: a random subset with duplicates.
		var nodes []int
		for v := 0; v < n; v++ {
			for r := rng.IntN(4); r > 0 && rng.IntN(3) != 0; r-- {
				nodes = append(nodes, v)
			}
		}
		if len(nodes) == 0 {
			nodes = append(nodes, rng.IntN(n))
		}
		for _, c := range counts {
			sources := make([]int, c)
			for i := range sources {
				sources[i] = nodes[rng.IntN(len(nodes))]
			}
			if assertSweepMatchesReference(t, fmt.Sprintf("random %d sources %d", seed, c), g, sources, nodes).Unreachable > 0 {
				split++
			}
		}
	}
	if split < 100 {
		t.Fatalf("only %d of 300 cases have unreachable pairs; the generator no longer covers disconnected graphs", split)
	}

	// A ring and a path of a few thousand nodes: diameters far above the
	// 64 sources of a batch, so batches run for thousands of levels.
	for _, c := range []struct {
		name string
		n    int
		ring bool
	}{{"ring", 3000, true}, {"path", 2500, false}} {
		g := graph.New(c.n)
		for u := 1; u < c.n; u++ {
			g.AddEdge(u-1, u, 1)
		}
		if c.ring {
			g.AddEdge(c.n-1, 0, 1)
		}
		all := make([]int, c.n)
		for i := range all {
			all[i] = i
		}
		if st := assertSweepMatchesReference(t, c.name+" all", g, all, all); st.Diameter < c.n/2 {
			t.Fatalf("%s: diameter %d, want at least %d", c.name, st.Diameter, c.n/2)
		}
		rng := rand.New(rand.NewPCG(uint64(c.n), 0x5eed))
		for _, k := range counts {
			sources := make([]int, k)
			for i := range sources {
				sources[i] = rng.IntN(c.n)
			}
			assertSweepMatchesReference(t, fmt.Sprintf("%s sources %d", c.name, k), g, sources, all)
		}
	}
}

// FuzzSweepMatchesReference pins the sweep, without and with a row
// callback, to the reference on byte-decoded multigraphs. data[0] sets
// the node count, 1 to 200, and data[1] the source count, 1 to 200.
// Then each byte triple (op, a, b) is one operation:
//   - op%4 < 2: add edge a%n – b%n (a self-loop when they are equal);
//   - op%4 == 2: remove edge (a<<8 | b) % len(Edges) if it is live;
//   - op%4 == 3: put a%n into the node set 1 + b%3 times.
//
// With no op 3 the node set is every node. Source i is entry
// (data[i%len(data)] + 31·i) % len(nodes) of the node set.
func FuzzSweepMatchesReference(f *testing.F) {
	// A 70-node ring swept from every node: the second batch starts past
	// bit 63.
	ring := []byte{69, 69}
	for u := range 70 {
		ring = append(ring, 0, byte(u), byte((u+1)%70))
	}
	f.Add(ring)
	// A star whose leaves enter the node set two or three times each,
	// with a parallel spoke and a self-loop on the hub.
	star := []byte{8, 29, 0, 0, 0}
	for leaf := byte(1); leaf < 9; leaf++ {
		star = append(star, 0, 0, leaf, 3, leaf, 1+leaf%2)
	}
	star = append(star, 1, 0, 1, 3, 0, 0)
	f.Add(star)
	// Two components, a triangle and a path, with one edge removed and
	// re-added.
	f.Add([]byte{5, 9, 0, 0, 1, 0, 1, 2, 0, 2, 0, 0, 3, 4, 2, 0, 3, 0, 3, 4, 0, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%200
		g := graph.New(n)
		var nodes []int
		for i := 2; i+2 < len(data); i += 3 {
			op, a, b := data[i]%4, int(data[i+1]), int(data[i+2])
			switch {
			case op < 2:
				g.AddEdge(a%n, b%n, 1)
			case op == 2:
				if len(g.Edges) > 0 {
					if id := (a<<8 | b) % len(g.Edges); g.Live(id) {
						g.RemoveEdge(id)
					}
				}
			default:
				for r := 1 + b%3; r > 0; r-- {
					nodes = append(nodes, a%n)
				}
			}
		}
		if nodes == nil {
			nodes = make([]int, n)
			for v := range nodes {
				nodes[v] = v
			}
		}
		sources := make([]int, 1+int(data[1])%200)
		for i := range sources {
			sources[i] = nodes[(int(data[i%len(data)])+31*i)%len(nodes)]
		}
		if _, err := sweepMatchesReference(g, sources, nodes); err != nil {
			t.Fatal(err)
		}
	})
}
