package graph

import (
	"context"

	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
)

// BFS returns hop distances from src to every node; unreachable nodes get
// -1. Edge capacities are ignored: every live edge is one hop.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N)
	g.BFSInto(src, dist, nil)
	return dist
}

// BFSInto is BFS with caller-owned buffers: dist must have length g.N and
// is overwritten; queue is reused as the frontier (grown as needed) and
// returned so callers can recycle its capacity across many sources. The
// all-pairs kernels call this once per source with per-worker buffers, so
// the sweep allocates nothing after warm-up.
func (g *Graph) BFSInto(src int, dist, queue []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	// A frozen graph walks the packed CSR rows — same slot order as adj,
	// so the frontier (and therefore every distance) is bit-identical to
	// the pointer-chasing walk below.
	if s := g.snap.Load(); s != nil {
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			d := dist[u] + 1
			for _, w32 := range s.nbr[s.off[u]:s.off[u+1]] {
				w := int(w32)
				if dist[w] == -1 {
					dist[w] = d
					queue = append(queue, w)
				}
			}
		}
		return queue
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range g.adj[u] {
			w := g.Edges[id].Other(u)
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// PathStats summarizes hop-count structure over a node set.
type PathStats struct {
	Diameter int // max finite pairwise distance
	// MeanHops is the mean distance over all ordered reachable pairs
	// (u != v). When no pair is reachable (Reachable == 0 — e.g. an
	// edgeless node set) it is a documented 0, never NaN.
	MeanHops    float64
	Reachable   int // number of ordered reachable pairs
	Unreachable int // number of ordered unreachable pairs
}

// parallelSourcesMin is the source-count below which the all-pairs sweep
// stays serial: under ~tens of sources the fan-out overhead exceeds the
// BFS work.
const parallelSourcesMin = 24

// apPartial is one worker's exact integer reduction state for a BFS
// sweep. The trailing pad rounds the struct up to 128 bytes — two cache
// lines, covering the adjacent-line spatial prefetcher — so the parts
// array (one element per worker, written on every accumulated source)
// never false-shares a line between workers.
type apPartial struct {
	sum            int64
	diam           int
	reach, unreach int
	_              [12]int64 // pad 32-byte payload to 128 bytes
}

// apScratch is one worker's reusable BFS buffers. The two slice headers
// are written back after every source (the queue may be regrown), so the
// pad keeps adjacent workers' headers off a shared cache line for the
// same reason apPartial is padded.
type apScratch struct {
	dist  []int
	queue []int
	_     [80]byte // pad 48 bytes of headers to 128
}

// sweepSources runs one BFS per entry of sources and reduces pair stats
// against the membership set nodes (sources must be a subset of nodes;
// the exhaustive sweep passes sources == nodes). perSource, when non-nil,
// receives each source's row sum and reachable count keyed by its index
// in sources — per-index delivery, so the record (and everything derived
// from it) is identical for any worker count. The integer reduction over
// per-worker partials is associative, so the combined PathStats is too.
func (g *Graph) sweepSources(ctx context.Context, sources, nodes []int, perSource func(i int, rowSum int64, rowReach int)) (PathStats, error) {
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
	if len(sources) < parallelSourcesMin || par.Workers() == 1 {
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
		scratch := make([]apScratch, len(parts))
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

// allNodes returns nodes itself, or the full [0, g.N) list when nil — the
// shared default of the all-pairs entry points.
func (g *Graph) allNodes(nodes []int) []int {
	if nodes != nil {
		return nodes
	}
	nodes = make([]int, g.N)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// AllPairsStatsCtx runs BFS from every node in nodes (or all nodes if
// nodes is nil) and aggregates diameter and mean hop count restricted to
// pairs within the set. Topology comparisons use ToR-to-ToR stats, so the
// subset form matters.
//
// The per-source BFS sweeps fan out across par.Workers() goroutines with
// per-worker reusable dist buffers. The aggregate is exact integer state
// (sum, max, counts), so the result is identical to the serial sweep for
// any worker count. ctx is checked before each source's BFS (the unit of
// work), so a canceled sweep stops within one source and returns an
// error matching physerr.ErrCanceled; cancellation is its only failure.
//
// The sweep is Θ(|nodes| · (N + E)): exact, but quadratic-ish in the node
// set. Fleet-scale callers (10k+ sources) should use
// AllPairsStatsSampledCtx, which bounds the sweep at a fixed source
// sample with documented error.
func (g *Graph) AllPairsStatsCtx(ctx context.Context, nodes []int) (PathStats, error) {
	defer obs.Time("graph.allpairs")()
	nodes = g.allNodes(nodes)
	obs.Add("graph.allpairs.sources", int64(len(nodes)))
	return g.sweepSources(ctx, nodes, nodes, nil)
}

// Connected reports whether all nodes are mutually reachable. The empty
// graph is connected.
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}
