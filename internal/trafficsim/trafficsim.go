// Package trafficsim evaluates the abstract "goodness" side of the
// paper's tradeoff: how much traffic a topology carries. It provides
// demand matrices (uniform all-to-all, or built entry by entry) and two
// throughput proxies — a fluid ECMP scaling factor and k-shortest-paths
// water-filling — so E7 can plot throughput-won against
// deployability-paid.
package trafficsim

import (
	"fmt"
	"math"

	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// Matrix is a demand matrix over the ToRs of a topology: D[i][j] is the
// demand from ToR index i to ToR index j, in the same units as edge
// capacities (Gbps).
type Matrix struct {
	N int
	D [][]float64
}

// NewMatrix allocates an all-zero n×n matrix. Negative n is treated as 0
// so adversarial sizes can't panic the allocator; the matrix generators
// all handle the empty case.
func NewMatrix(n int) Matrix {
	if n < 0 {
		n = 0
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	return Matrix{N: n, D: d}
}

// Uniform returns the all-to-all matrix where every ToR sends egress/
// (n−1) to every other ToR, egress total per ToR as given.
func Uniform(n int, egress float64) Matrix {
	m := NewMatrix(n)
	if n < 2 {
		return m
	}
	per := egress / float64(n-1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.D[i][j] = per
			}
		}
	}
	return m
}

// ECMPThroughput returns the largest α such that α·M is routable through
// t with fluid ECMP splitting on shortest paths, i.e. the min over links
// of capacity/load when routing M. α ≥ 1 means the matrix fits.
func ECMPThroughput(t *topology.Topology, m Matrix) (float64, error) {
	tors := t.ToRs()
	if len(tors) != m.N {
		return 0, fmt.Errorf("trafficsim: matrix is %d×%d but topology has %d ToRs", m.N, m.N, len(tors))
	}
	load := make([]float64, 2*len(t.Edges))
	// One scratch and one node-indexed weight vector serve every
	// destination: the per-destination DAG/load buffers are reused, so the
	// sweep allocates nothing per ToR. ECMPRouteInto merges each
	// destination's loads into load index-ascending, exactly as the old
	// allocate-per-destination loop did.
	sc := t.NewECMPScratch()
	weight := make([]float64, t.N)
	for j, dst := range tors {
		any := false
		for i, src := range tors {
			weight[src] = 0
			if d := m.D[i][j]; d > 0 && src != dst {
				weight[src] = d
				any = true
			}
		}
		if !any {
			continue
		}
		t.ECMPRouteInto(weight, dst, load, sc)
	}
	return alphaFromDirectionalLoads(t, load)
}

// alphaFromDirectionalLoads returns min over loaded directional links of
// capacity/load — the uniform scaling margin.
func alphaFromDirectionalLoads(t *topology.Topology, load []float64) (float64, error) {
	alpha := math.Inf(1)
	for _, e := range t.Edges {
		if e.U == -1 {
			continue
		}
		cap := e.Cap
		if cap == 0 {
			cap = 1
		}
		for dir := 0; dir < 2; dir++ {
			if l := load[2*e.ID+dir]; l > 0 {
				if r := cap / l; r < alpha {
					alpha = r
				}
			}
		}
	}
	if math.IsInf(alpha, 1) {
		// Nothing to route (under two ToRs, or no demand) is an input error.
		return 0, physerr.OutOfRange("trafficsim: no load was routed (empty matrix?)")
	}
	return alpha, nil
}
