package trafficsim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"physdep/internal/graph"
	"physdep/internal/topology"
)

// refKShortestNodePaths is the enumeration kShortestNodePaths replaced:
// the same two DFS passes, but every path found is checked against a
// dedup set keyed by the path's fixed-width encoding, because the
// slack-1 pass finds the shortest paths again. It is the oracle the
// length rule is pinned against.
func refKShortestNodePaths(snap *graph.Snapshot, src, dst int, distTo []int, k int, onPath []bool) [][]int {
	if distTo[src] < 0 {
		return nil
	}
	var paths [][]int
	seen := make(map[string]bool)
	var key []byte
	pathKey := func(nodes []int) []byte {
		key = key[:0]
		for _, u := range nodes {
			key = binary.LittleEndian.AppendUint32(key, uint32(u))
		}
		return key
	}
	cur := []int{src}
	rot := src*31 + dst*17
	var dfs func(u, remaining int)
	dfs = func(u, remaining int) {
		if len(paths) >= k {
			return
		}
		if u == dst {
			sig := pathKey(cur)
			if !seen[string(sig)] {
				seen[string(sig)] = true
				paths = append(paths, append([]int(nil), cur...))
			}
			return
		}
		onPath[u] = true
		defer func() { onPath[u] = false }()
		un := snap.Neighbors(u)
		n := len(un)
		for i := 0; i < n; i++ {
			w := int(un[(i+rot)%n])
			if onPath[w] || distTo[w] < 0 || distTo[w] > remaining-1 {
				continue
			}
			cur = append(cur, w)
			dfs(w, remaining-1)
			cur = cur[:len(cur)-1]
			if len(paths) >= k {
				return
			}
		}
	}
	for s := 0; s <= kspSlack && len(paths) < k; s++ {
		dfs(src, distTo[src]+s)
	}
	return paths
}

// comparePathsAllPairs runs kShortestNodePaths and the reference for
// every ordered (src, dst) pair of g and each k, and reports the first
// pair whose path lists differ in content or order. It returns the
// number of (pair, k) cases compared.
func comparePathsAllPairs(t *testing.T, label string, g *graph.Graph, ks []int) int {
	t.Helper()
	snap := g.Freeze()
	sc := newKSPScratch(g.N)
	refOnPath := make([]bool, g.N)
	cases := 0
	for dst := 0; dst < g.N; dst++ {
		sc.queue = g.BFSInto(dst, sc.dist, sc.queue)
		for src := 0; src < g.N; src++ {
			for _, k := range ks {
				got := kShortestNodePaths(snap, src, dst, sc.dist, k, sc)
				want := refKShortestNodePaths(snap, src, dst, sc.dist, k, refOnPath)
				if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
					t.Fatalf("%s: %d→%d k=%d:\n got  %v\n want %v", label, src, dst, k, got, want)
				}
				cases++
			}
		}
	}
	return cases
}

// TestKShortestNodePathsMatchesReference pins the length rule to the
// dedup-set enumeration it replaced: the same paths in the same order
// for every pair of jellyfish fabrics, intact and with every fifth edge
// removed (which makes distances uneven and may disconnect pairs), at
// quotas that stop inside the shortest pass, at its edge, and deep into
// the slack pass.
func TestKShortestNodePathsMatchesReference(t *testing.T) {
	ks := []int{1, 2, 3, 8, 64}
	cases := 0
	for _, shape := range []struct{ n, k, r int }{{16, 8, 4}, {20, 8, 5}, {40, 10, 6}} {
		for seed := uint64(1); seed <= 12; seed++ {
			jf, err := topology.Jellyfish(topology.JellyfishConfig{N: shape.n, K: shape.k, R: shape.r, Rate: 100, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("jellyfish N=%d seed=%d", shape.n, seed)
			cases += comparePathsAllPairs(t, label, jf.Graph, ks)
			cut := jf.Graph.Clone()
			live := 0
			for id := range cut.Edges {
				if !cut.Live(id) {
					continue
				}
				if live%5 == 0 {
					cut.RemoveEdge(id)
				}
				live++
			}
			cases += comparePathsAllPairs(t, label+" every fifth edge removed", cut, ks)
		}
	}
	if testing.Verbose() {
		t.Logf("%d (pair, k) cases compared", cases)
	}
}

// decodeFuzzFabric builds a small multigraph from fuzz bytes: data[0]
// picks the node count (2..24), data[1] the path quota (1..64), and each
// following 3-byte record either links two nodes (parallel links and
// self-loops included) or, with the top bit of its first byte set,
// removes an edge by index if it is still live. data must hold at
// least two bytes.
func decodeFuzzFabric(data []byte) (*graph.Graph, int) {
	n := 2 + int(data[0])%23
	k := 1 + int(data[1])%64
	g := graph.New(n)
	rec := data[2:]
	for i := 0; i+3 <= len(rec) && i < 3*256; i += 3 {
		op, a, b := rec[i], int(rec[i+1]), int(rec[i+2])
		if op&0x80 == 0 {
			g.AddEdge(a%n, b%n, 1)
			continue
		}
		if len(g.Edges) > 0 {
			if id := (a<<8 | b) % len(g.Edges); g.Live(id) {
				g.RemoveEdge(id)
			}
		}
	}
	return g, k
}

// FuzzKSPPathsMatchReference compares kShortestNodePaths with the
// dedup-set reference on random small fabrics, for every pair.
func FuzzKSPPathsMatchReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g, k := decodeFuzzFabric(data)
		comparePathsAllPairs(t, "fuzz fabric", g, []int{k})
	})
}
