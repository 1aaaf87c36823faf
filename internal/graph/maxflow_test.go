package graph

import "math"

// MaxFlow computes the maximum s–t flow using Dinic's algorithm. Each
// undirected edge of capacity c becomes a pair of directed arcs of
// capacity c (standard undirected-flow reduction). Edges with Cap == 0 are
// treated as capacity 1, which makes hop-level topologies usable without
// annotating every link. It is the exact oracle the bisection estimate is
// checked against (oracle_test.go), so only tests compile it.
func (g *Graph) MaxFlow(s, t int) float64 {
	if s == t {
		return math.Inf(1)
	}
	d := newDinic(g)
	return d.run(s, t)
}

// dinic holds the residual network. Arcs are stored in pairs: arc i and
// arc i^1 are mutual reverses.
type dinic struct {
	n     int
	head  [][]int // head[u] = arc indices out of u
	to    []int
	cap   []float64
	level []int
	iter  []int
}

func newDinic(g *Graph) *dinic {
	d := &dinic{n: g.N, head: make([][]int, g.N)}
	for _, e := range g.Edges {
		if e.U == -1 || e.U == e.V {
			continue
		}
		c := e.Cap
		if c == 0 {
			c = 1
		}
		d.addArcPair(e.U, e.V, c)
	}
	d.level = make([]int, d.n)
	d.iter = make([]int, d.n)
	return d
}

// addArcPair installs u→v and v→u each with capacity c. For undirected
// flow the reverse arc carries real capacity, not just residual space.
func (d *dinic) addArcPair(u, v int, c float64) {
	d.head[u] = append(d.head[u], len(d.to))
	d.to = append(d.to, v)
	d.cap = append(d.cap, c)
	d.head[v] = append(d.head[v], len(d.to))
	d.to = append(d.to, u)
	d.cap = append(d.cap, c)
}

func (d *dinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.level[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range d.head[u] {
			if d.cap[a] > 1e-12 && d.level[d.to[a]] == -1 {
				d.level[d.to[a]] = d.level[u] + 1
				queue = append(queue, d.to[a])
			}
		}
	}
	return d.level[t] >= 0
}

func (d *dinic) dfs(u, t int, f float64) float64 {
	if u == t {
		return f
	}
	for ; d.iter[u] < len(d.head[u]); d.iter[u]++ {
		a := d.head[u][d.iter[u]]
		v := d.to[a]
		if d.cap[a] > 1e-12 && d.level[v] == d.level[u]+1 {
			got := d.dfs(v, t, math.Min(f, d.cap[a]))
			if got > 0 {
				d.cap[a] -= got
				d.cap[a^1] += got
				return got
			}
		}
	}
	return 0
}

func (d *dinic) run(s, t int) float64 {
	flow := 0.0
	for d.bfs(s, t) {
		for i := range d.iter {
			d.iter[i] = 0
		}
		for {
			f := d.dfs(s, t, math.Inf(1))
			if f <= 0 {
				break
			}
			flow += f
		}
	}
	return flow
}
