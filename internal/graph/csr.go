package graph

import (
	"fmt"
	"math"

	"physdep/internal/obs"
)

// Snapshot is an immutable compressed-sparse-row (CSR) view of a graph's
// adjacency: the per-node edge-ID lists of Graph.adj packed into flat
// arrays behind one offsets index, with the opposite endpoint and the raw
// capacity resolved per slot. The read-only kernels (per-destination BFS,
// bisection refinement, the spectral matvec, KSP enumeration) iterate this
// form — one contiguous walk instead of a pointer chase per node — and
// because every packed row preserves adj's slot order exactly (self-loops
// still appear twice), a kernel run over the snapshot is byte-identical to
// the same run over the live adjacency. The all-pairs sweep reads the
// distinct-neighbour table instead: BFS distances depend on neither slot
// order, edge multiplicity nor self-loops.
//
// A Snapshot is never mutated after Freeze builds it, so any number of
// goroutines may read it concurrently.
type Snapshot struct {
	n int
	// Raw incidence: node u's slots are off[u]..off[u+1]. edge holds the
	// edge ID per slot, nbr the endpoint opposite u (== u for self-loops),
	// and caps the raw Edge.Cap (zero kept as zero; kernels that follow
	// the "zero caps count as 1" convention apply it themselves).
	off  []int32
	edge []int32
	nbr  []int32
	caps []float64
	// Distinct neighbors, ascending, self excluded — exactly the slice
	// Graph.Neighbors(u) returns, shared so per-caller neighbor tables
	// (KSP enumeration, the all-pairs sweep) need not be rebuilt and
	// re-sorted per call.
	nbrOff  []int32
	nbrList []int32
}

// Neighbors returns the distinct neighbor nodes of u in ascending order,
// excluding u itself — the packed equivalent of Graph.Neighbors. The
// returned slice aliases the snapshot and must not be modified.
func (s *Snapshot) Neighbors(u int) []int32 {
	return s.nbrList[s.nbrOff[u]:s.nbrOff[u+1]]
}

// Degree returns the degree of node u (self-loops count twice), matching
// Graph.Degree at freeze time.
func (s *Snapshot) Degree(u int) int { return int(s.off[u+1] - s.off[u]) }

// Row returns node u's incidence slots as two parallel slices — the edge
// ID and the endpoint opposite u for each slot, in adjacency slot order.
// Edges are appended in ascending ID order and removal shift-deletes, so
// every row is ascending by edge ID (a self-loop's two slots are equal
// and adjacent); a filter of the row is already in EdgesBetween order.
// Both slices alias the snapshot and must not be modified.
func (s *Snapshot) Row(u int) (edge, nbr []int32) {
	return s.edge[s.off[u]:s.off[u+1]], s.nbr[s.off[u]:s.off[u+1]]
}

// Freeze returns the graph's CSR snapshot, building and caching it on
// first use. Freeze is idempotent and safe to call from multiple
// goroutines (concurrent builds produce identical snapshots; one wins).
// Any mutation — AddNode(s), AddEdge, RemoveEdge — invalidates the cached
// snapshot, and the next Freeze repacks it from the live adjacency;
// mutating the graph while a kernel is iterating a snapshot it already
// loaded is the caller's race, exactly as it was for the live adjacency.
//
// The read-only kernels (AllPairsStatsCtx, BisectionEstimateCtx,
// SpectralGapCtx, trafficsim's KSP) freeze on entry, so callers never need
// to call Freeze explicitly — it exists for code that wants to pay the
// build outside a timed or latency-sensitive region.
func (g *Graph) Freeze() *Snapshot {
	if s := g.snap.Load(); s != nil {
		return s
	}
	s := g.buildSnapshot()
	g.snap.Store(s)
	return s
}

// invalidateSnapshot drops the cached snapshot; every adjacency mutation
// calls it so a stale packed view can never be observed. It stores only
// when a snapshot exists, so a generator adding thousands of edges to a
// never-frozen graph pays one atomic load per edge, not a store.
func (g *Graph) invalidateSnapshot() {
	if g.snap.Load() != nil {
		g.snap.Store(nil)
	}
}

func (g *Graph) buildSnapshot() *Snapshot {
	// The build counter is how snapshot sharing is proven, not just
	// claimed: the evaluation daemon's tests pin "N concurrent requests,
	// one freeze" on it, and a cache-hit request asserts it stays flat.
	obs.Inc("graph.freeze.builds")
	slots := 0
	for _, row := range g.adj {
		slots += len(row)
	}
	// int32 indexing halves the packed arrays' footprint. A graph that
	// overflows it would need >2^31 incidence slots (hundreds of GB of
	// live adjacency) — far past the validated topology envelope — so
	// overflow is an invariant breach, not reachable user input.
	if g.N >= math.MaxInt32 || slots >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: Freeze: graph too large for CSR snapshot (%d nodes, %d incidence slots)", g.N, slots))
	}
	s := &Snapshot{
		n:       g.N,
		off:     make([]int32, g.N+1),
		edge:    make([]int32, slots),
		nbr:     make([]int32, slots),
		caps:    make([]float64, slots),
		nbrOff:  make([]int32, g.N+1),
		nbrList: make([]int32, slots),
	}
	pos := int32(0)
	for u, row := range g.adj {
		s.off[u] = pos
		pos += int32(len(row))
	}
	s.off[g.N] = pos
	// The distinct-neighbour table is built by transpose: visiting u in
	// ascending order, u is appended to the row of each neighbour w, so
	// every row comes out ascending with no sort. Row w is written into
	// w's own slot window (its degree bounds its distinct neighbours),
	// with nbrOff[w] as the write cursor. While u's slots are visited only
	// u is appended, so parallel edges land adjacent and one look at the
	// row's tail dedups them. Self-loops are skipped.
	copy(s.nbrOff, s.off)
	for u, row := range g.adj {
		p := s.off[u]
		for _, id := range row {
			e := g.Edges[id]
			w := int32(e.Other(u))
			s.edge[p] = int32(id)
			s.nbr[p] = w
			s.caps[p] = e.Cap
			p++
			if int(w) == u {
				continue
			}
			if end := s.nbrOff[w]; end == s.off[w] || s.nbrList[end-1] != int32(u) {
				s.nbrList[end] = int32(u)
				s.nbrOff[w] = end + 1
			}
		}
	}
	// Compact the rows: each moves left over the gaps its predecessors
	// left, and nbrOff turns from write cursors into row starts.
	pos = 0
	for w := 0; w < g.N; w++ {
		start, end := s.off[w], s.nbrOff[w]
		s.nbrOff[w] = pos
		pos += int32(copy(s.nbrList[pos:], s.nbrList[start:end]))
	}
	s.nbrOff[g.N] = pos
	s.nbrList = s.nbrList[:pos]
	return s
}
