package graph

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

// messy builds a graph that exercises every CSR packing edge case:
// parallel edges, self-loops (twice in adj), zero capacities, and a
// tombstoned edge slot.
func messy() *Graph {
	g := New(6)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 0) // parallel, zero cap (counts as 1 for cuts)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 2, 5) // self-loop
	g.AddEdge(2, 3, 1)
	dead := g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 0, 1)
	g.RemoveEdge(dead) // leave a tombstone; 3–4 now only via 5
	return g
}

func TestSnapshotMatchesAdjacency(t *testing.T) {
	g := messy()
	// BFS before any freeze exercises the pointer-chasing path…
	legacy := make([][]int, g.N)
	for u := 0; u < g.N; u++ {
		legacy[u] = g.BFS(u)
	}
	s := g.Freeze()
	if g.snap.Load() == nil {
		t.Fatal("Freeze did not cache a snapshot")
	}
	if s2 := g.Freeze(); s2 != s {
		t.Error("second Freeze rebuilt instead of returning the cache")
	}
	// …and after the freeze the packed walk must give identical distances.
	for u := 0; u < g.N; u++ {
		if got := g.BFS(u); !reflect.DeepEqual(got, legacy[u]) {
			t.Errorf("BFS(%d) frozen = %v, unfrozen = %v", u, got, legacy[u])
		}
	}
	for u := 0; u < g.N; u++ {
		if s.Degree(u) != g.Degree(u) {
			t.Errorf("snapshot degree(%d) = %d, graph has %d", u, s.Degree(u), g.Degree(u))
		}
		want := g.Neighbors(u)
		row := s.Neighbors(u)
		got := make([]int, len(row))
		for i, w := range row {
			got[i] = int(w)
		}
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot Neighbors(%d) = %v, graph has %v", u, got, want)
		}
	}
	if s.n != g.N {
		t.Errorf("snapshot has %d nodes, graph %d", s.n, g.N)
	}
}

// TestFreezeInvalidation interleaves mutations with kernel calls and
// checks every kernel answer against a fresh, identically-built graph —
// a stale snapshot surviving any of the mutations would diverge.
func TestFreezeInvalidation(t *testing.T) {
	type op struct {
		name   string
		mutate func(g *Graph) // applied to both graphs
	}
	g := messy()
	var loop int // self-loop edge id, shared across ops below
	ops := []op{
		{"add edge", func(g *Graph) { g.AddEdge(3, 4, 1) }},
		{"add self-loop", func(g *Graph) { loop = g.AddEdge(1, 1, 2) }},
		{"remove self-loop", func(g *Graph) { g.RemoveEdge(loop) }},
		{"add node + edge", func(g *Graph) { n := g.AddNode(); g.AddEdge(n, 0, 1) }},
		{"remove edge", func(g *Graph) { g.RemoveEdge(2) }},
		// Additions after a removal append to rows the removal shifted;
		// each re-freeze must still match the fresh twin.
		{"add parallel edge", func(g *Graph) { g.AddEdge(0, 1, 3) }},
		{"add isolated node", func(g *Graph) { g.AddNode() }},
		{"add zero-cap edge", func(g *Graph) { g.AddEdge(4, 0, 0) }},
	}
	rebuild := func(upTo int) *Graph {
		f := messy()
		for _, o := range ops[:upTo] {
			o.mutate(f)
		}
		return f
	}
	for i, o := range ops {
		// Kernel call freezes…
		must(g.AllPairsStatsCtx(context.Background(), nil))
		if g.snap.Load() == nil {
			t.Fatalf("before %q: AllPairsStats did not freeze", o.name)
		}
		// …mutation invalidates…
		o.mutate(g)
		if g.snap.Load() != nil {
			t.Fatalf("after %q: mutation left a stale snapshot cached", o.name)
		}
		// …and the re-frozen snapshot and kernels must match a
		// never-mutated twin.
		fresh := rebuild(i + 1)
		if !snapEqual(g.Freeze(), fresh.Freeze()) {
			t.Errorf("after %q: re-frozen snapshot differs from a fresh build", o.name)
		}
		if got, want := must(g.AllPairsStatsCtx(context.Background(), nil)), must(fresh.AllPairsStatsCtx(context.Background(), nil)); got != want {
			t.Errorf("after %q: AllPairsStats = %+v, fresh graph gives %+v", o.name, got, want)
		}
		for u := 0; u < g.N; u++ {
			if !reflect.DeepEqual(g.BFS(u), fresh.BFS(u)) {
				t.Errorf("after %q: BFS(%d) diverges from fresh graph", o.name, u)
			}
		}
		gr := rand.New(rand.NewPCG(7, 9))
		fr := rand.New(rand.NewPCG(7, 9))
		if got, want := must(g.BisectionEstimateCtx(context.Background(), 3, gr)), must(fresh.BisectionEstimateCtx(context.Background(), 3, fr)); got != want {
			t.Errorf("after %q: BisectionEstimate = %v, fresh graph gives %v", o.name, got, want)
		}
		gr = rand.New(rand.NewPCG(3, 4))
		fr = rand.New(rand.NewPCG(3, 4))
		if got, want := must(g.SpectralGapCtx(context.Background(), 50, gr)), must(fresh.SpectralGapCtx(context.Background(), 50, fr)); got != want {
			t.Errorf("after %q: SpectralGap = %v, fresh graph gives %v", o.name, got, want)
		}
	}
}

// TestFreezeConcurrent hammers lazy freezing from many goroutines (run
// under -race in check.sh): concurrent Freeze calls and packed-vs-legacy
// BFS walks must agree and never trip the race detector.
func TestFreezeConcurrent(t *testing.T) {
	g := messy()
	want := g.BFS(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				g.Freeze()
				if got := g.BFS(0); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent BFS = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIncidentEdgesMutationSafe pins the fix for the aliasing bug:
// IncidentEdges used to return the graph's internal adjacency slice, so
// a caller writing through it corrupted the adjacency (and any frozen
// snapshot built from it).
func TestIncidentEdgesMutationSafe(t *testing.T) {
	g := messy()
	s := g.Freeze()
	before := append([]int(nil), g.IncidentEdges(1)...)
	ids := g.IncidentEdges(1)
	for i := range ids {
		ids[i] = -999 // scribble over the returned slice
	}
	if got := g.IncidentEdges(1); !reflect.DeepEqual(got, before) {
		t.Fatalf("mutating the returned slice corrupted adjacency: %v, want %v", got, before)
	}
	if g.snap.Load() == nil {
		t.Error("IncidentEdges invalidated the snapshot; it is a read")
	}
	if got := g.Freeze(); got != s {
		t.Error("snapshot rebuilt after a pure read")
	}
	// The graph must still answer queries that walk adj[1].
	if !g.HasEdgeBetween(1, 2) {
		t.Error("adjacency of node 1 corrupted: lost edge 1–2")
	}
}

// snapEqual compares every packed array of two snapshots — the literal
// "byte-identical" check between a re-frozen graph and a fresh build of
// the same mutation history.
func snapEqual(a, b *Snapshot) bool {
	return a.n == b.n &&
		reflect.DeepEqual(a.off, b.off) &&
		reflect.DeepEqual(a.edge, b.edge) &&
		reflect.DeepEqual(a.nbr, b.nbr) &&
		reflect.DeepEqual(a.caps, b.caps) &&
		reflect.DeepEqual(a.nbrOff, b.nbrOff) &&
		reflect.DeepEqual(a.nbrList, b.nbrList)
}

// TestAllPairsStatsDisconnected pins the PathStats aggregation contract
// on a fully-disconnected node set: MeanHops is a documented 0 — never
// NaN from a 0/0 — and every ordered pair counts as unreachable.
func TestAllPairsStatsDisconnected(t *testing.T) {
	g := New(5) // edgeless
	for _, nodes := range [][]int{nil, {0, 2, 4}} {
		st := must(g.AllPairsStatsCtx(context.Background(), nodes))
		n := 5
		if nodes != nil {
			n = len(nodes)
		}
		if math.IsNaN(st.MeanHops) || st.MeanHops != 0 {
			t.Errorf("nodes=%v: MeanHops = %v, want 0", nodes, st.MeanHops)
		}
		if st.Reachable != 0 {
			t.Errorf("nodes=%v: Reachable = %d, want 0", nodes, st.Reachable)
		}
		if want := n * (n - 1); st.Unreachable != want {
			t.Errorf("nodes=%v: Unreachable = %d, want %d", nodes, st.Unreachable, want)
		}
		if st.Diameter != 0 {
			t.Errorf("nodes=%v: Diameter = %d, want 0", nodes, st.Diameter)
		}
	}
}
