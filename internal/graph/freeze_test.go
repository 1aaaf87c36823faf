package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// checkFrozen freezes g and checks the snapshot against the live graph:
// every Neighbors row equals Graph.Neighbors, every Row holds the live
// adjacency's slots with their opposite endpoints, and every row is
// ascending by edge ID with a self-loop's two slots adjacent.
func checkFrozen(t testing.TB, g *Graph) {
	t.Helper()
	s := g.Freeze()
	for u := 0; u < g.N; u++ {
		want := g.Neighbors(u)
		got := s.Neighbors(u)
		if len(got) != len(want) {
			t.Fatalf("node %d: snapshot neighbours %v, graph %v", u, got, want)
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("node %d: snapshot neighbours %v, graph %v", u, got, want)
			}
		}
		inc := g.IncidentEdges(u)
		edge, nbr := s.Row(u)
		if s.Degree(u) != g.Degree(u) || len(edge) != len(inc) {
			t.Fatalf("node %d: snapshot degree %d (row %d), graph %d", u, s.Degree(u), len(edge), g.Degree(u))
		}
		for i, id := range inc {
			if int(edge[i]) != id || int(nbr[i]) != g.Edges[id].Other(u) {
				t.Fatalf("node %d slot %d: snapshot (%d, %d), graph edge %d", u, i, edge[i], nbr[i], id)
			}
		}
		checkAscending(t, g, u, inc)
	}
}

// checkAscending requires row (node u's edge IDs) to ascend strictly,
// except that a self-loop's ID fills two adjacent slots.
func checkAscending(t testing.TB, g *Graph, u int, row []int) {
	t.Helper()
	for i := 1; i < len(row); i++ {
		if row[i] > row[i-1] {
			continue
		}
		loop := row[i] == row[i-1] && g.Edges[row[i]].U == u && g.Edges[row[i]].V == u &&
			(i < 2 || row[i-2] != row[i])
		if !loop {
			t.Fatalf("node %d: row %v is not ascending by edge ID", u, row)
		}
	}
}

// randomMultigraph returns a graph of up to 12 nodes, some made by
// AddNodes, with parallel edges, self-loops, zero capacities, isolated
// nodes and a random history of removals interleaved with additions.
func randomMultigraph(rng *rand.Rand) *Graph {
	g := New(rng.IntN(4))
	if rng.IntN(2) == 0 {
		g.AddNodes(rng.IntN(6), rng.IntN(4))
	}
	for g.N < 1+rng.IntN(12) {
		g.AddNode()
	}
	// Nodes at or past `wired` stay isolated.
	wired := 1 + rng.IntN(g.N)
	for op := rng.IntN(40); op > 0; op-- {
		if len(g.Edges) > 0 && rng.IntN(3) == 0 {
			if id := rng.IntN(len(g.Edges)); g.Live(id) {
				g.RemoveEdge(id)
			}
			continue
		}
		u := rng.IntN(wired)
		v := u // self-loop
		if rng.IntN(5) > 0 {
			v = rng.IntN(wired)
		}
		for k := 1 + rng.IntN(3)/2*rng.IntN(3); k > 0; k-- { // parallel copies
			g.AddEdge(u, v, float64(rng.IntN(3)))
		}
	}
	return g
}

// TestFreezeNeighborsMatchGraphRandom checks the transposed neighbour
// table, and the packed rows, against the live graph on random
// multigraphs, before and after a further mutation.
func TestFreezeNeighborsMatchGraphRandom(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0xf4ee2e))
			g := randomMultigraph(rng)
			checkFrozen(t, g)
			if g.N > 1 {
				g.AddEdge(0, g.N-1, 1)
				checkFrozen(t, g)
			}
		})
	}
}

// TestRowsAscendingByEdgeID pins the invariant KSP's hop collection
// relies on: adjacency rows, live and packed, are ascending by edge ID
// after any history of additions and removals, and so are a clone's.
func TestRowsAscendingByEdgeID(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xa5c))
		g := randomMultigraph(rng)
		c := g.Clone()
		for u := 0; u < g.N; u++ {
			if !slices.Equal(c.IncidentEdges(u), g.IncidentEdges(u)) {
				t.Fatalf("seed %d: clone's row %d differs", seed, u)
			}
		}
		checkFrozen(t, g)
		checkFrozen(t, c)
	}
}

// TestAddNodesRowCapacity pushes rows past the degree AddNodes reserved
// and checks that no row writes into its neighbour's window.
func TestAddNodesRowCapacity(t *testing.T) {
	g := New(1)
	g.Freeze()
	g.AddNodes(3, 2)
	if g.N != 4 || g.snap.Load() != nil {
		t.Fatalf("AddNodes: N=%d, snapshot kept %v", g.N, g.snap.Load() != nil)
	}
	g.AddEdge(2, 3, 1) // fills rows 2 and 3
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 1, 1) // fills row 1 with a self-loop
	g.AddEdge(1, 2, 1) // rows 1 and 2 outgrow their windows
	g.AddEdge(0, 1, 1) // node 0 came from New, not the slab
	want := [][]int{{4}, {2, 2, 3, 4}, {0, 1, 3}, {0, 1}}
	for u, w := range want {
		if got := g.IncidentEdges(u); !slices.Equal(got, w) {
			t.Errorf("row %d = %v, want %v", u, got, w)
		}
	}
	checkFrozen(t, g)
}

// FuzzFreeze decodes the input into additions and removals over at most
// eight nodes, with optional freezes in between, and checks every frozen
// snapshot against the live graph. The first byte sets the node count;
// then each byte pair (a, b) is one operation:
//   - a < 0x80: add edge a%n – b%n with capacity (a>>4)&3;
//   - 0x80 <= a < 0xc0: freeze and check;
//   - a >= 0xc0: remove edge b%len(Edges) if it is live.
func FuzzFreeze(f *testing.F) {
	// testdata/fuzz/FuzzFreeze holds the self-loop, triple parallel edge
	// and remove-then-re-add seeds.
	f.Add([]byte{4, 0x00, 0x01, 0x12, 0x02, 0x02, 0x03}) // path with a 0-cap edge
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		g := New(n)
		for i := 1; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			switch {
			case a < 0x80:
				g.AddEdge(int(a)%n, int(b)%n, float64((a>>4)&3))
			case a < 0xc0:
				checkFrozen(t, g)
			case len(g.Edges) > 0:
				if id := int(b) % len(g.Edges); g.Live(id) {
					g.RemoveEdge(id)
				}
			}
		}
		checkFrozen(t, g)
	})
}
