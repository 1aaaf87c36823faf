package topology

import (
	"slices"
	"strconv"
	"strings"

	"physdep/internal/graph"
)

// fabric is a topology under construction in its final shape (DESIGN.md
// §21). A generator hands newFabric a layout that adds the switches tier
// by tier, and newFabric runs it twice: a sizing pass that only counts
// switches, adjacency slots and label bytes, then a build pass into a
// node table made once, adjacency rows cut from one slab and labels that
// are windows of one string. The generator's links then fill the rows
// and the reserved edge list without growing either. Every fabric owns
// its buffers: nothing is shared between two builds. The topology is
// embedded by value, so a build allocates one struct for both; the
// generator returns &f.Topology.
type fabric struct {
	Topology
	sizing              bool
	nodes, slots, bytes int
	labels              strings.Builder
}

// newFabric builds the switches layout adds, with room reserved for
// links links.
func newFabric(name string, links int, layout func(f *fabric)) *fabric {
	f := &fabric{sizing: true}
	layout(f)
	f.sizing = false
	f.Topology = Topology{Graph: graph.New(0), Name: name}
	f.Reserve(f.nodes, f.slots, links)
	f.Nodes = make([]Node, 0, f.nodes)
	f.labels.Grow(f.bytes)
	layout(f)
	return f
}

// switches adds n switches like node, each with an adjacency row of
// capacity deg. Each is labelled prefix, then every fixed index followed
// by "-", then its index in the tier: switches(4, 8, node, "agg-", 3)
// labels agg-3-0 … agg-3-3. It returns the new switches' window of Nodes
// (nil in the sizing pass), where the caller sets any per-switch field.
func (f *fabric) switches(n, deg int, node Node, prefix string, fixed ...int) []Node {
	var num [20]byte
	if f.sizing {
		f.nodes += n
		f.slots += n * deg
		f.bytes += n*len(prefix) + digitsBelow(n)
		for _, x := range fixed {
			f.bytes += n * (len(strconv.AppendInt(num[:0], int64(x), 10)) + 1) // x and its "-"
		}
		return nil
	}
	first := len(f.Nodes)
	f.AddNodes(n, deg)
	for i := 0; i < n; i++ {
		start := f.labels.Len()
		f.labels.WriteString(prefix)
		for _, x := range fixed {
			f.labels.Write(strconv.AppendInt(num[:0], int64(x), 10))
			f.labels.WriteByte('-')
		}
		f.labels.Write(strconv.AppendInt(num[:0], int64(i), 10))
		node.ID = first + i
		node.Label = f.labels.String()[start:]
		f.Nodes = append(f.Nodes, node)
	}
	return f.Nodes[first:]
}

// digitsBelow returns the number of decimal digits in 0, 1, …, n−1.
func digitsBelow(n int) int {
	total := 0
	for lo, hi, d := 0, 10, 1; lo < n; lo, hi, d = hi, hi*10, d+1 {
		total += (min(n, hi) - lo) * d
	}
	return total
}

// wiring is a random fabric's node-ID neighbour table: node u's
// neighbours are nb[u*r : u*r+deg[u]], in no particular order. No node
// ever holds more than r links, so the rows never overflow. It answers
// "is u–v already a link?" and "is the fabric connected?" without
// touching edge records.
type wiring struct {
	t   *Topology
	r   int
	nb  []int32
	deg []int32
}

func newWiring(t *Topology, r int) wiring {
	return wiring{t: t, r: r, nb: make([]int32, t.N*r), deg: make([]int32, t.N)}
}

// connected reports whether every node is reachable from node 0: a BFS
// over the neighbour table with a visited bitmap and a queue that holds
// each node once, so it never grows past its preallocated N.
func (w *wiring) connected() bool {
	n := len(w.deg)
	seen := make([]uint64, (n+63)/64)
	queue := make([]int32, 1, n) // node 0
	seen[0] = 1
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		for _, v := range w.nb[u*w.r : u*w.r+int(w.deg[u])] {
			if bit := uint64(1) << (v & 63); seen[v>>6]&bit == 0 {
				seen[v>>6] |= bit
				queue = append(queue, v)
			}
		}
	}
	return len(queue) == n
}

// linked reports whether u and v are already joined by a link.
func (w *wiring) linked(u, v int) bool {
	for _, x := range w.nb[u*w.r : u*w.r+int(w.deg[u])] {
		if int(x) == v {
			return true
		}
	}
	return false
}

// link adds the link u–v to the fabric and to the table.
func (w *wiring) link(u, v int) {
	w.t.Link(u, v)
	w.nb[u*w.r+int(w.deg[u])] = int32(v)
	w.deg[u]++
	w.nb[v*w.r+int(w.deg[v])] = int32(u)
	w.deg[v]++
}

// unlink removes live link id from the fabric and the table and returns
// its ends.
func (w *wiring) unlink(id int) (a, b int) {
	a, b = w.t.Edges[id].U, w.t.Edges[id].V
	w.t.RemoveEdge(id)
	w.drop(a, b)
	w.drop(b, a)
	return a, b
}

// drop swap-deletes v from u's row.
func (w *wiring) drop(u, v int) {
	row := w.nb[u*w.r : u*w.r+int(w.deg[u])]
	for i, x := range row {
		if int(x) == v {
			row[i] = row[len(row)-1]
			w.deg[u]--
			return
		}
	}
}

// liveEdgeIDs returns the IDs of t's live links in ascending order, in
// dst's storage when it has room.
func liveEdgeIDs(dst []int, t *Topology) []int {
	dst = slices.Grow(dst[:0], len(t.Edges))
	for _, e := range t.Edges {
		if e.U != -1 {
			dst = append(dst, e.ID)
		}
	}
	return dst
}
