package trafficsim

import (
	"context"
	"fmt"

	"physdep/internal/graph"
	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// k-shortest-paths routing is the scheme the Jellyfish evaluation
// actually uses (plain ECMP is known to waste expander capacity — Harsh
// et al.'s "Spineless Data Centers" point). JellyfishK is that paper's
// path count per pair; MaxKSPK bounds k, since path enumeration and the
// water-fill are linear in it and a runaway k must fail fast rather than
// hang.
const (
	JellyfishK = 8
	MaxKSPK    = 1 << 12
)

// kspSlack is how many hops beyond a pair's shortest distance a KSP path
// may take.
const kspSlack = 1

// kspScratch is the per-worker reusable state of path enumeration: the
// BFS buffers for the per-destination distance field and the on-path
// marks. One worker owns one scratch at a time (par.ForWorkerCtx), so
// none of it needs locks.
type kspScratch struct {
	dist   []int
	queue  []int
	onPath []bool
}

func newKSPScratch(n int) *kspScratch {
	return &kspScratch{dist: make([]int, n), onPath: make([]bool, n)}
}

// kShortestNodePaths enumerates up to k node-distinct paths from src
// to dst whose length is at most dist(src,dst)+kspSlack, as node
// sequences. Parallel edges between two switches are one logical hop
// here — they are capacity, not extra path diversity — and the router
// spreads each hop's load across them evenly. The DFS is bounded by a
// per-node distance-to-dst check, so the search never wanders. Neighbor
// rows come from the shared CSR snapshot (distinct, ascending — the
// same sequence the old per-call table held), so enumeration order and
// therefore every path set is unchanged.
//
// Each path is found once, with no dedup set. Pass s runs the DFS with
// a budget of dist+s hops, so a path that reaches dst with `remaining`
// hops unspent has length dist+s−remaining. Pass s accepts a path only
// at remaining == 0, i.e. at length exactly dist+s: the shorter ones
// were all found by earlier passes, which ran to completion — had any
// of them filled the quota, pass s would not run. Within one pass,
// distinct DFS branches give distinct node sequences.
func kShortestNodePaths(snap *graph.Snapshot, src, dst int, distTo []int, k int, sc *kspScratch) [][]int {
	if distTo[src] < 0 {
		return nil
	}
	var paths [][]int
	cur := []int{src}
	onPath := sc.onPath
	// Rotate neighbor exploration per (src, dst) so different pairs keep
	// different detour sets when k caps the enumeration — otherwise every
	// pair's spill converges on the lowest-numbered intermediates and
	// manufactures hot spots no real traffic-engineering scheme would
	// produce.
	rot := src*31 + dst*17
	var dfs func(u, remaining int)
	dfs = func(u, remaining int) {
		if len(paths) >= k {
			return
		}
		if u == dst {
			if remaining == 0 {
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
	// Shortest paths take priority in the k budget: enumerate with zero
	// slack first, widening only while quota remains. Otherwise a pair
	// could fill its quota with detours and never learn its direct path.
	for s := 0; s <= kspSlack && len(paths) < k; s++ {
		dfs(src, distTo[src]+s)
	}
	return paths
}

// KSPThroughputCtx routes M over up to k near-shortest node paths per
// pair using greedy water-filling in k equal increments (each takes the
// path whose bottleneck trunk stays coolest — the fluid analogue of MPTCP
// subflows avoiding hot paths), splitting every hop's load evenly across
// its parallel trunk members, and returns the scaling margin α, directly
// comparable to ECMPThroughput. This is the fair way to evaluate
// expander fabrics, which ECMP systematically under-serves.
//
// Internally the expensive phase — one BFS plus up-to-k path enumeration
// per (src,dst) pair — fans out across par.Workers() goroutines, one
// destination per task with per-worker scratch. Load placement stays a
// strictly sequential commit phase in the serial pair order, so the
// returned α is byte-identical for any worker count. ctx is checked as
// enumeration tasks are handed out (par contract) and between
// water-filling chunks, so a canceled solve stops within one destination
// BFS or one chunk and returns an error matching physerr.ErrCanceled.
func KSPThroughputCtx(ctx context.Context, t *topology.Topology, m Matrix, k int) (float64, error) {
	tors := t.ToRs()
	if len(tors) != m.N {
		return 0, fmt.Errorf("trafficsim: matrix is %d×%d but topology has %d ToRs", m.N, m.N, len(tors))
	}
	if k < 1 || k > MaxKSPK {
		return 0, physerr.OutOfRange("trafficsim: KSP k must be in [1, %d], got %d", MaxKSPK, k)
	}
	defer obs.Time("trafficsim.ksp")()

	// Phase 1 (parallel): enumerate node paths for every demanding pair,
	// grouped by destination so each task runs one BFS.
	stopEnum := obs.Time("trafficsim.ksp.enumerate")
	type rawPair struct {
		demand float64
		paths  [][]int // node sequences
	}
	perDst := make([][]rawPair, len(tors))
	// The DFS expands nodes far more often than there are nodes, so it
	// walks the graph's frozen CSR snapshot: the packed distinct-neighbor
	// rows replace the per-call sorted-neighbor table this kernel used to
	// build (the dominant alloc source), and every worker shares them.
	snap := t.Freeze()
	scratch := make([]*kspScratch, par.Workers())
	err := par.ForWorkerCtx(ctx, len(tors), func(wk, j int) error {
		sc := scratch[wk]
		if sc == nil {
			sc = newKSPScratch(t.N)
			scratch[wk] = sc
		}
		dst := tors[j]
		sc.queue = t.BFSInto(dst, sc.dist, sc.queue)
		var out []rawPair
		for i, src := range tors {
			d := m.D[i][j]
			if d <= 0 || src == dst {
				continue
			}
			raw := kShortestNodePaths(snap, src, dst, sc.dist, k, sc)
			if len(raw) == 0 {
				return fmt.Errorf("trafficsim: no path %d→%d", src, dst)
			}
			out = append(out, rawPair{demand: d, paths: raw})
		}
		perDst[j] = out
		return nil
	})
	stopEnum()
	if err != nil {
		return 0, err
	}

	// Phase 2 (sequential): translate paths to directional trunk indices
	// and water-fill in the fixed pair order. The translated form is four
	// flat arenas — pair → path → hop → parallel dir index, each level an
	// int32 offset range into the next — replacing the old per-hop map
	// cache and nested [][][]int: the water-fill inner loop walks
	// contiguous memory, and translation allocates only the arenas.
	defer obs.Time("trafficsim.ksp.waterfill")()
	var (
		pairDemand  []float64
		pairPathOff = []int32{0} // pair i owns paths [pairPathOff[i], pairPathOff[i+1])
		pathHopOff  = []int32{0} // path p owns hops  [pathHopOff[p], pathHopOff[p+1])
		hopDirOff   = []int32{0} // hop h owns dirs   dirArena[hopDirOff[h]:hopDirOff[h+1]]
		dirArena    []int32
		hopIDs      []int32 // one hop's parallel edge IDs, reused
	)
	for j := range tors {
		for _, rp := range perDst[j] {
			pairDemand = append(pairDemand, rp.demand)
			for _, nodes := range rp.paths {
				for k := 0; k+1 < len(nodes); k++ {
					u, v := nodes[k], nodes[k+1]
					// Collect the parallel trunk members u→v from u's CSR
					// row. Rows are ascending by edge ID, so this is the
					// order EdgesBetween returns.
					hopIDs = hopIDs[:0]
					edge, nbr := snap.Row(u)
					for s, w := range nbr {
						if int(w) == v {
							hopIDs = append(hopIDs, edge[s])
						}
					}
					for _, id := range hopIDs {
						dirArena = append(dirArena, int32(graph.DirLoad(int(id), t.Edges[id].U == u)))
					}
					hopDirOff = append(hopDirOff, int32(len(dirArena)))
				}
				pathHopOff = append(pathHopOff, int32(len(hopDirOff)-1))
			}
			pairPathOff = append(pairPathOff, int32(len(pathHopOff)-1))
		}
	}
	if obs.Enabled() {
		obs.Add("trafficsim.ksp.pairs", int64(len(pairDemand)))
		obs.Add("trafficsim.ksp.paths", int64(len(pathHopOff)-1))
	}
	load := make([]float64, 2*len(t.Edges))
	cancellable := ctx.Done() != nil
	for c := 0; c < k; c++ {
		// One chunk sweeps every pair once; checking between chunks keeps
		// the check count independent of pair count, and a completed fill
		// identical to an uncancellable one.
		if cancellable {
			if err := ctx.Err(); err != nil {
				return 0, physerr.Canceled(err)
			}
		}
		for pi := range pairDemand {
			f := pairDemand[pi] / float64(k)
			best, bestCost := int32(-1), 0.0
			for p := pairPathOff[pi]; p < pairPathOff[pi+1]; p++ {
				cost := 0.0
				for h := pathHopOff[p]; h < pathHopOff[p+1]; h++ {
					dirs := dirArena[hopDirOff[h]:hopDirOff[h+1]]
					share := f / float64(len(dirs))
					for _, di := range dirs {
						if load[di]+share > cost {
							cost = load[di] + share
						}
					}
				}
				if best == -1 || cost < bestCost {
					best, bestCost = p, cost
				}
			}
			for h := pathHopOff[best]; h < pathHopOff[best+1]; h++ {
				dirs := dirArena[hopDirOff[h]:hopDirOff[h+1]]
				share := f / float64(len(dirs))
				for _, di := range dirs {
					load[di] += share
				}
			}
		}
	}
	return alphaFromDirectionalLoads(t, load)
}
