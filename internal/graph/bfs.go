package graph

import (
	"context"
	"math/bits"

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
// per-destination kernels (ECMP DAGs, KSP enumeration) call this once per
// destination with per-worker buffers, so they allocate nothing after
// warm-up.
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

// apPartial is one worker's exact integer reduction state for a BFS
// sweep. The trailing pad rounds the struct up to 128 bytes — two cache
// lines, covering the adjacent-line spatial prefetcher — so the parts
// array (one element per worker, written by every batch) never
// false-shares a line between workers.
type apPartial struct {
	sum            int64
	diam           int
	reach, unreach int
	_              [12]int64 // pad 32-byte payload to 128 bytes
}

// sweepWidth is the number of sources one bit-parallel BFS carries: one
// bit each in a uint64 per node.
const sweepWidth = 64

// pullFactor sets when a level pulls instead of pushing: once the
// frontier holds 1/pullFactor of the nodes. A node joins the frontier at
// most 64 times per batch, so a batch has at most 64·pullFactor pull
// levels, each O(N + E), and stays within a constant of 64 scalar BFSs.
const pullFactor = 4

// sweepScratch is one worker's bit-parallel BFS state, made on its first
// batch: the seen, frontier and next words (one uint64 per node) and the
// lists of nodes whose frontier and next words are nonzero. A list holds
// a node at most once, so capacity n never regrows, and a finished batch
// leaves the frontier and next words zero and both lists empty. The
// headers are therefore written once and then only read, so adjacent
// workers' entries need no padding.
type sweepScratch struct {
	seen, cur, next []uint64
	front, grown    []int32
}

func newSweepScratch(n int) sweepScratch {
	words := make([]uint64, 3*n)
	lists := make([]int32, 2*n)
	return sweepScratch{seen: words[:n], cur: words[n : 2*n], next: words[2*n:], front: lists[:0:n], grown: lists[n:n]}
}

// sweepSources runs a BFS from every entry of sources and reduces pair
// stats against the membership set nodes (sources must be a subset of
// nodes; the exhaustive sweep passes sources == nodes). perSource, when
// non-nil, receives each source's row sum and reachable count keyed by
// its index in sources — per-index delivery, so the record (and
// everything derived from it) is identical for any worker count. Only
// then does a batch count per-source rows; with perSource nil it counts
// the totals alone. The integer reduction over per-worker partials is
// associative, so the combined PathStats is too.
//
// The BFSs run bit-parallel, as in MS-BFS (Then et al., VLDB 2014):
// sources go in batches of 64, one bit per source, and each level moves
// a frontier node's whole word of source bits to its neighbours at once.
// A node joins the frontier at most once per source bit, and a level
// pushes from the frontier or, when the frontier is a large share of the
// graph, pulls into every unfinished node (Beamer et al., SC 2012). So a
// batch costs O(64·(N + E)), a constant times 64 scalar BFSs, whatever
// the diameter. A batch is the unit of parallel work; ctx is checked
// before each batch and at each BFS level. DESIGN §19 says why every
// reduction equals the one-BFS-per-source sweep's.
func (g *Graph) sweepSources(ctx context.Context, sources, nodes []int, perSource func(i int, rowSum int64, rowReach int)) (PathStats, error) {
	// Freeze once before the fan-out: the workers share one immutable
	// snapshot.
	snap := g.Freeze()
	// mult[v] is how many times v occurs in nodes: each entry of nodes is
	// one pair endpoint, duplicates included.
	mult := make([]int32, g.N)
	for _, v := range nodes {
		mult[v]++
	}
	parts := make([]apPartial, par.Workers())
	scratch := make([]sweepScratch, len(parts))
	batches := (len(sources) + sweepWidth - 1) / sweepWidth
	err := par.ForWorkerCtx(ctx, batches, func(wk, b int) error {
		sc := &scratch[wk]
		if sc.seen == nil {
			*sc = newSweepScratch(g.N)
		}
		lo := b * sweepWidth
		batch := sources[lo:min(lo+sweepWidth, len(sources))]
		if perSource == nil {
			return snap.sweepBatch(ctx, sc, batch, nodes, mult, &parts[wk], nil)
		}
		var rows sweepRows
		if err := snap.sweepBatch(ctx, sc, batch, nodes, mult, &parts[wk], &rows); err != nil {
			return err
		}
		for k := range batch {
			perSource(lo+k, rows.sum[k], rows.reach[k])
		}
		return nil
	})
	if err != nil {
		return PathStats{}, err
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

// sweepRows is one batch's per-source record: row sum and reachable
// count by source bit.
type sweepRows struct {
	sum   [sweepWidth]int64
	reach [sweepWidth]int
	cnt   vcounter
}

// sweepBatch runs one bit-parallel BFS from the ≤64 sources in batch
// (bit k is batch[k]) over the distinct-neighbour table, with sc as its
// state; mult counts each node's entries in nodes. It folds the batch's
// totals into pt: at each level, the entries first reached count
// mult[w]·popcount(next[w]) over the nodes w that grew. rows, when
// non-nil, also gets each source's row, counted in the same pass by a
// carry-save vertical counter. A done ctx stops it between levels with
// an error matching physerr.ErrCanceled; that fails the sweep, so the
// partly written pt, rows and sc are never read again.
func (s *Snapshot) sweepBatch(ctx context.Context, sc *sweepScratch, batch, nodes []int, mult []int32, pt *apPartial, rows *sweepRows) error {
	seen, cur, next := sc.seen, sc.cur, sc.next
	clear(seen)
	front := sc.front
	for k, u := range batch {
		if cur[u] == 0 {
			front = append(front, int32(u))
		}
		seen[u] |= 1 << k
		cur[u] |= 1 << k
	}
	grown := sc.grown
	full := uint64(1)<<len(batch) - 1 // len(batch) == 64 wraps to all ones
	done := ctx.Done()
	for d := 1; len(front) > 0; d++ {
		select {
		case <-done:
			return physerr.Canceled(ctx.Err())
		default:
		}
		if pullFactor*len(front) >= len(seen) {
			// Pull: every node that has not seen all bits gathers its
			// neighbours' frontier bits. It reads every node, so it runs
			// only when the frontier holds a large share of them.
			grown = grown[:0]
			for w := range int32(len(seen)) {
				sw := seen[w]
				if sw == full {
					continue
				}
				var in uint64
				for _, v := range s.nbrList[s.nbrOff[w]:s.nbrOff[w+1]] {
					in |= cur[v]
				}
				if in &^= sw; in != 0 {
					grown = append(grown, w)
					seen[w] = sw | in
					next[w] = in
				}
			}
			for _, v := range front {
				cur[v] = 0
			}
		} else {
			// Push: each frontier node hands its source bits to every
			// neighbour that has not seen them. A bit first reaches a node at
			// level d, so seen can take it at once.
			grown = grown[:0]
			for _, v := range front {
				in := cur[v]
				cur[v] = 0
				for _, w := range s.nbrList[s.nbrOff[v]:s.nbrOff[v+1]] {
					if x := in &^ seen[w]; x != 0 {
						if next[w] == 0 {
							grown = append(grown, w)
						}
						seen[w] |= x
						next[w] |= x
					}
				}
			}
		}
		// Count the entries of nodes first reached at level d: in total,
		// and per source bit when rows are asked for.
		var level int
		for _, w := range grown {
			x := next[w]
			m := int(mult[w])
			level += m * bits.OnesCount64(x)
			if rows != nil {
				for ; m > 0; m-- {
					rows.cnt.add(x)
				}
			}
		}
		if level > 0 {
			pt.diam = max(pt.diam, d)
			pt.sum += int64(d) * int64(level)
			pt.reach += level
		}
		if rows != nil {
			// Bit k of plane j is bit j of source k's count: add its
			// weight to the rows of the sources that have it.
			cnt := &rows.cnt
			cnt.flush()
			for j, p := range cnt.plane[:cnt.planes] {
				for ; p != 0; p &= p - 1 {
					k := bits.TrailingZeros64(p)
					rows.sum[k] += int64(d) << j
					rows.reach[k] += 1 << j
				}
			}
			cnt.reset()
		}
		front, grown = grown, front
		cur, next = next, cur
	}
	for _, v := range nodes {
		pt.unreach += bits.OnesCount64(^seen[v] & full)
	}
	return nil
}

// vcounterBlock is the number of words a vcounter buffers before it
// folds them into its planes.
const vcounterBlock = 16

// vcounter is a bit-sliced vertical counter: bit k of plane j is bit j
// of the number of words added so far that had bit k set. It buffers
// words and folds each full block with a Harley–Seal carry-save tree
// (Harley and Seal; Muła, Kurz and Lemire, 2018): planes 0–3 hold the
// tree's ones, twos, fours and eights, which are bits 0–3 of each count,
// and the block's sixteens word is ripple-added at plane 4, the carry
// stopping as soon as it is empty. flush folds a partial block by
// ripple-adding each buffered word at plane 0, so the planes hold the
// counts only after a flush.
type vcounter struct {
	plane  [64]uint64
	planes int // planes in use
	buf    [vcounterBlock]uint64
	n      int // words in buf
}

func (c *vcounter) add(x uint64) {
	c.buf[c.n] = x
	if c.n++; c.n == vcounterBlock {
		c.fold()
		c.n = 0
	}
}

// csa is a carry-save adder: per bit, a + b + c = 2·hi + lo.
func csa(a, b, c uint64) (hi, lo uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// fold adds the 16 buffered words: a Harley–Seal tree into planes 0–3,
// then one ripple add of the sixteens at plane 4.
func (c *vcounter) fold() {
	p, w := &c.plane, &c.buf
	ones, twos, fours, eights := p[0], p[1], p[2], p[3]
	var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
	twosA, ones = csa(ones, w[0], w[1])
	twosB, ones = csa(ones, w[2], w[3])
	foursA, twos = csa(twos, twosA, twosB)
	twosA, ones = csa(ones, w[4], w[5])
	twosB, ones = csa(ones, w[6], w[7])
	foursB, twos = csa(twos, twosA, twosB)
	eightsA, fours = csa(fours, foursA, foursB)
	twosA, ones = csa(ones, w[8], w[9])
	twosB, ones = csa(ones, w[10], w[11])
	foursA, twos = csa(twos, twosA, twosB)
	twosA, ones = csa(ones, w[12], w[13])
	twosB, ones = csa(ones, w[14], w[15])
	foursB, twos = csa(twos, twosA, twosB)
	eightsB, fours = csa(fours, foursA, foursB)
	sixteens, eights = csa(eights, eightsA, eightsB)
	p[0], p[1], p[2], p[3] = ones, twos, fours, eights
	c.planes = max(c.planes, 4)
	c.ripple(sixteens, 4)
}

// ripple adds x·2^j to the counts.
func (c *vcounter) ripple(x uint64, j int) {
	for ; x != 0; j++ {
		c.plane[j], x = c.plane[j]^x, c.plane[j]&x
	}
	c.planes = max(c.planes, j)
}

// flush adds the buffered words of a partial block.
func (c *vcounter) flush() {
	for _, x := range c.buf[:c.n] {
		c.ripple(x, 0)
	}
	c.n = 0
}

// reset zeroes the counts, clearing only the planes in use, so one
// counter serves every level of a batch.
func (c *vcounter) reset() {
	clear(c.plane[:c.planes])
	c.planes = 0
	c.n = 0
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
// The sweep runs bit-parallel BFSs over batches of up to 64 sources,
// and the batches fan out across par.Workers() goroutines with per-worker
// reusable buffers. The aggregate is exact integer state (sum, max,
// counts), so the result is identical to a one-BFS-per-source serial
// sweep for any worker count. ctx is checked before each batch and at
// each BFS level of a batch, so a canceled sweep stops within one level
// (at most one scalar BFS of work) and returns an error matching
// physerr.ErrCanceled; cancellation is its only failure.
//
// The sweep is O(⌈|nodes|/64⌉ · 64 · (N + E)), the bound of one scalar
// BFS per source, whatever the diameter: exact, but quadratic-ish in the
// node set. Low-diameter fabrics run far below it; a ring or chain runs
// close to it. Fleet-scale callers (10k+ sources) should use
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
