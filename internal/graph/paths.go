package graph

// shortestPathDAG describes, for a fixed destination t, the equal-cost
// next hops every node may use — exactly what an ECMP-routed fabric
// installs in its forwarding tables.
type shortestPathDAG struct {
	Dst      int
	Dist     []int   // hop distance to Dst; -1 if unreachable
	NextHops [][]int // NextHops[u] = neighbors one hop closer to Dst (deduped, adjacency order)
	PathCnt  []float64
}

// ECMPScratch holds the reusable state of repeated ECMP routing passes
// over one graph: the DAG buffers, BFS frontier, counting-sort order, and
// per-destination load accumulator. One scratch serves any number of
// sequential ECMPRouteInto calls with zero steady-state allocation; it is
// not safe for concurrent use. Buffers are sized for the graph the
// scratch was created on — create a new scratch after adding nodes or
// edges.
type ECMPScratch struct {
	dag       shortestPathDAG
	queue     []int
	order     []int32 // nodes with finite distance, ascending distance then ID
	bucketOff []int32 // order[bucketOff[d]:bucketOff[d+1]] = nodes at distance d
	counts    []int32
	stamp     []int64 // next-hop dedup marks, keyed by tick (never reset)
	tick      int64
	down      []int32 // downhill slot indices of the node being drained
	nodeIn    []float64
	dl        []float64 // one destination's directional loads
}

// NewECMPScratch returns a scratch sized for g.
func (g *Graph) NewECMPScratch() *ECMPScratch {
	return &ECMPScratch{
		dag: shortestPathDAG{
			Dist:     make([]int, g.N),
			NextHops: make([][]int, g.N),
			PathCnt:  make([]float64, g.N),
		},
		stamp:  make([]int64, g.N),
		nodeIn: make([]float64, g.N),
		dl:     make([]float64, 2*len(g.Edges)),
	}
}

// fillDAG (re)builds dag toward dst by walking g's frozen CSR rows.
// The packed rows preserve adjacency slot order, so next-hop order and
// every path-count accumulation match the historical pointer-chasing
// build bit for bit. NextHops rows are truncated and reused (append
// allocates only on first use or growth).
func (g *Graph) fillDAG(snap *Snapshot, dag *shortestPathDAG, dst int, sc *ECMPScratch) {
	dag.Dst = dst
	sc.queue = g.BFSInto(dst, dag.Dist, sc.queue)
	for u := range dag.PathCnt {
		dag.PathCnt[u] = 0
		dag.NextHops[u] = dag.NextHops[u][:0]
	}
	dag.PathCnt[dst] = 1
	maxd := sc.sortByDistance(dag.Dist)
	// Process nodes in increasing distance so path counts accumulate.
	for d := int32(1); d <= maxd; d++ {
		for _, u32 := range sc.order[sc.bucketOff[d]:sc.bucketOff[d+1]] {
			u := int(u32)
			sc.tick++
			mark := sc.tick
			for _, w32 := range snap.nbr[snap.off[u]:snap.off[u+1]] {
				w := int(w32)
				if w == u || dag.Dist[w] != int(d)-1 {
					continue
				}
				dag.PathCnt[u] += dag.PathCnt[w] // each parallel edge adds paths
				if sc.stamp[w] != mark {
					sc.stamp[w] = mark
					dag.NextHops[u] = append(dag.NextHops[u], w)
				}
			}
		}
	}
}

// sortByDistance counting-sorts the finitely-distanced nodes into
// sc.order (ascending distance, ascending node ID within a distance — the
// same visit sequence the old per-call bucket slices produced) and
// returns the maximum distance.
func (sc *ECMPScratch) sortByDistance(dist []int) int32 {
	maxd := 0
	for _, d := range dist {
		if d > maxd {
			maxd = d
		}
	}
	if cap(sc.counts) < maxd+2 {
		sc.counts = make([]int32, maxd+2)
		sc.bucketOff = make([]int32, maxd+2)
	}
	sc.counts = sc.counts[:maxd+2]
	sc.bucketOff = sc.bucketOff[:maxd+2]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	n := 0
	for _, d := range dist {
		if d >= 0 {
			sc.counts[d]++
			n++
		}
	}
	pos := int32(0)
	for d := 0; d <= maxd+1; d++ {
		sc.bucketOff[d] = pos
		if d <= maxd {
			pos += sc.counts[d]
			sc.counts[d] = sc.bucketOff[d] // reuse as the running fill cursor
		}
	}
	sc.order = sc.order[:0]
	if cap(sc.order) < n {
		sc.order = make([]int32, n)
	}
	sc.order = sc.order[:n]
	for u, d := range dist {
		if d >= 0 {
			sc.order[sc.counts[d]] = int32(u)
			sc.counts[d]++
		}
	}
	return int32(maxd)
}

// DirLoad indexes directional edge loads: links are full duplex, so each
// edge has independent capacity in its U→V and V→U directions.
// A directional load slice has length 2×len(Edges); entry DirLoad(id,
// fromU) is the load on edge id flowing from U to V (fromU=true) or V to
// U (fromU=false).
func DirLoad(edgeID int, fromU bool) int {
	if fromU {
		return 2 * edgeID
	}
	return 2*edgeID + 1
}

// ECMPRouteInto routes weight[u] units from every node u with a non-zero
// weight toward dst along the shortest-path DAG (fluid split across
// equal-cost next-hop edges) and adds the resulting directional loads
// into load (length 2×len(Edges)). The per-destination loads accumulate
// in sc.dl first and merge into load with one addition per index — the
// same float-op sequence the allocate-per-destination path performed, so
// a throughput sweep converted to the scratch form is byte-identical.
//
// The graph is frozen on entry; the drain walks the packed CSR rows in
// adjacency slot order. Allocation-free after the first call on a scratch.
func (g *Graph) ECMPRouteInto(weight []float64, dst int, load []float64, sc *ECMPScratch) {
	snap := g.Freeze()
	g.fillDAG(snap, &sc.dag, dst, sc)
	dag := &sc.dag
	for i := range sc.dl {
		sc.dl[i] = 0
	}
	anyIn := false
	for u := range sc.nodeIn {
		sc.nodeIn[u] = 0
		if weight[u] != 0 && u != dst && dag.Dist[u] >= 0 {
			sc.nodeIn[u] = weight[u]
			anyIn = true
		}
	}
	if !anyIn {
		return
	}
	// Drain nodes from farthest to nearest; sc.order holds them ascending,
	// so walk the buckets backward.
	maxd := int32(len(sc.bucketOff) - 2)
	for d := maxd; d >= 1; d-- {
		for _, u32 := range sc.order[sc.bucketOff[d]:sc.bucketOff[d+1]] {
			u := int(u32)
			if sc.nodeIn[u] == 0 {
				continue
			}
			// Downhill slots from u.
			sc.down = sc.down[:0]
			lo, hi := snap.off[u], snap.off[u+1]
			for slot := lo; slot < hi; slot++ {
				w := int(snap.nbr[slot])
				if w != u && dag.Dist[w] == int(d)-1 {
					sc.down = append(sc.down, slot)
				}
			}
			if len(sc.down) == 0 {
				continue
			}
			share := sc.nodeIn[u] / float64(len(sc.down))
			for _, slot := range sc.down {
				id := int(snap.edge[slot])
				sc.dl[DirLoad(id, g.Edges[id].U == u)] += share
				sc.nodeIn[snap.nbr[slot]] += share
			}
		}
	}
	for idx, l := range sc.dl {
		load[idx] += l
	}
}
