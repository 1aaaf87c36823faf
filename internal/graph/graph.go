// Package graph implements the undirected multigraph and the graph
// algorithms that the topology, traffic, and lifecycle packages build on:
// BFS and all-pairs path statistics, connectivity, spectral-gap estimation
// (expander quality), Dinic max-flow, and a Kernighan–Lin style bisection
// heuristic.
//
// Nodes are switches, not servers. The envelope is set by the topology
// layer: ES1 runs a 10k-switch fabric and topology.MaxSwitches is 2^20, so
// the kernels here are written against that scale (CSR snapshots, a
// bit-parallel all-pairs sweep, bulk node rows for generators), always
// with deterministic output.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Edge is one undirected link between two nodes. Multigraphs are allowed:
// two switches connected by a 4-cable trunk hold four parallel edges.
type Edge struct {
	ID int // index into Graph.Edges
	U  int // endpoint node (smaller or equal endpoint not guaranteed)
	V  int // endpoint node
	// Cap is the edge capacity in arbitrary consistent units (physdep
	// uses Gbps). Zero-capacity edges are treated as capacity 1 by
	// algorithms that need capacities.
	Cap float64
}

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint, which always indicates a bookkeeping bug in the caller.
func (e Edge) Other(n int) int {
	switch n {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d (%d–%d)", n, e.ID, e.U, e.V))
}

// Graph is an undirected multigraph over nodes 0..N-1.
//
// The zero value is an empty graph ready for use.
type Graph struct {
	N     int
	Edges []Edge
	adj   [][]int // adj[u] = edge IDs incident to u; self-loops appear twice
	// snap caches the frozen CSR view of adj (see Freeze in csr.go). It is
	// atomic so read-only kernels may freeze lazily while other goroutines
	// are reading; every mutation clears it.
	snap atomic.Pointer[Snapshot]
}

// New returns a graph with n nodes and no edges. It panics on negative n,
// an invariant breach rather than bad input: generators validate their
// configs and grow graphs through AddNode.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: New(%d): negative node count", n))
	}
	return &Graph{N: n, adj: make([][]int, n)}
}

// AddNode appends one node and returns its ID.
func (g *Graph) AddNode() int {
	g.invalidateSnapshot()
	g.adj = append(g.adj, nil)
	g.N++
	return g.N - 1
}

// AddNodes appends n nodes for a generator that knows their degree: their
// adjacency rows are windows of one slab, each with capacity deg, and
// room for n*deg/2 edges is reserved. Rows are three-index slices, so a
// row that outgrows deg reallocates itself and never writes into its
// neighbour's window. It panics on negative n or deg, an invariant
// breach like New's.
func (g *Graph) AddNodes(n, deg int) {
	if n < 0 || deg < 0 {
		panic(fmt.Sprintf("graph: AddNodes(%d, %d): negative count", n, deg))
	}
	g.invalidateSnapshot()
	slab := make([]int, n*deg)
	g.adj = slices.Grow(g.adj, n)
	for i := 0; i < n; i++ {
		g.adj = append(g.adj, slab[i*deg:i*deg:(i+1)*deg])
	}
	g.Edges = slices.Grow(g.Edges, n*deg/2)
	g.N += n
}

// AddEdge adds an undirected edge u–v with capacity cap and returns its ID.
// Self-loops and parallel edges are permitted.
func (g *Graph) AddEdge(u, v int, cap float64) int {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", u, v, g.N))
	}
	g.invalidateSnapshot()
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{ID: id, U: u, V: v, Cap: cap})
	g.adj[u] = append(g.adj[u], id)
	if v != u {
		g.adj[v] = append(g.adj[v], id)
	} else {
		g.adj[u] = append(g.adj[u], id) // self-loop counts twice toward degree
	}
	return id
}

// RemoveEdge deletes edge id. Edge IDs of other edges are preserved (the
// slot is tombstoned), so callers may hold IDs across removals. Removed
// edges have U == -1.
func (g *Graph) RemoveEdge(id int) {
	if id < 0 || id >= len(g.Edges) || g.Edges[id].U == -1 {
		panic(fmt.Sprintf("graph: RemoveEdge(%d): no such live edge", id))
	}
	g.invalidateSnapshot()
	e := g.Edges[id]
	g.adj[e.U] = removeVal(g.adj[e.U], id)
	if e.V != e.U {
		g.adj[e.V] = removeVal(g.adj[e.V], id)
	} else {
		g.adj[e.U] = removeVal(g.adj[e.U], id) // second copy of the loop
	}
	g.Edges[id].U, g.Edges[id].V = -1, -1
}

// removeVal deletes the first occurrence of v from s, preserving the
// order of the remaining elements. Order preservation is load-bearing:
// adjacency lists are appended in ascending edge-ID order, so with
// shift-removal they stay ascending across any removal history. That
// makes a graph's per-node incidence order a pure function of its live
// edge set in slot order — which is what lets an interchange document
// (live edges only, slot order) reload into a graph whose CSR rows, and
// therefore every order-sensitive float accumulation (SpectralGap's
// matvec), are byte-identical to the original's.
func removeVal(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Live reports whether edge id exists and has not been removed.
func (g *Graph) Live(id int) bool {
	return id >= 0 && id < len(g.Edges) && g.Edges[id].U != -1
}

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, e := range g.Edges {
		if e.U != -1 {
			n++
		}
	}
	return n
}

// Degree returns the degree of node u (self-loops count twice).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// IncidentEdges returns the IDs of edges incident to u, in insertion
// order (self-loops appear twice). The returned slice is a copy the
// caller owns: mutating it cannot corrupt the adjacency or a frozen
// snapshot. Hot loops that only need the degree should use Degree.
func (g *Graph) IncidentEdges(u int) []int {
	return append([]int(nil), g.adj[u]...)
}

// Neighbors returns the distinct neighbor nodes of u in ascending order.
func (g *Graph) Neighbors(u int) []int {
	seen := map[int]bool{}
	var out []int
	for _, id := range g.adj[u] {
		w := g.Edges[id].Other(u)
		if w != u && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// HasEdgeBetween reports whether at least one live edge joins u and v.
func (g *Graph) HasEdgeBetween(u, v int) bool {
	for _, id := range g.adj[u] {
		if g.Edges[id].Other(u) == v {
			return true
		}
	}
	return false
}

// EdgesBetween returns the IDs of all live edges joining u and v.
func (g *Graph) EdgesBetween(u, v int) []int {
	var out []int
	for _, id := range g.adj[u] {
		if g.Edges[id].Other(u) == v {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy of g. Tombstoned edges are preserved so edge
// IDs remain valid in the copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{N: g.N, Edges: append([]Edge(nil), g.Edges...), adj: make([][]int, g.N)}
	for i := range g.adj {
		c.adj[i] = append([]int(nil), g.adj[i]...)
	}
	return c
}

// MinMaxDegree returns the smallest and largest node degree. For an empty
// graph it returns (0, 0).
func (g *Graph) MinMaxDegree() (min, max int) {
	if g.N == 0 {
		return 0, 0
	}
	min = g.Degree(0)
	for u := 0; u < g.N; u++ {
		d := g.Degree(u)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max
}

// IsRegular reports whether every node has degree d.
func (g *Graph) IsRegular(d int) bool {
	min, max := g.MinMaxDegree()
	return min == d && max == d
}
