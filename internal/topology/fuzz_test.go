package topology

import (
	"slices"
	"testing"

	"physdep/internal/units"
)

// clampParam folds an arbitrary fuzzed int into [-2, lim], keeping
// negatives and zero in play (the validation surface) while bounding the
// build cost of valid configs.
func clampParam(v int, lim int) int {
	if v < 0 {
		v = -v
	}
	return v%(lim+3) - 2
}

// FuzzTopologyGenerators drives every generator with arbitrary small
// configs. The invariant under test is the library boundary contract: a
// generator either returns a topology that passes Validate or returns an
// error — it never panics, whatever the config. A valid build must also
// be well formed (checkStructure): the bulk builds cut rows from one slab
// and labels from one string, and a slip there would still validate.
func FuzzTopologyGenerators(f *testing.F) {
	f.Add(uint8(0), 4, 0, 0, 0, uint64(1), float64(100))
	f.Add(uint8(1), 4, 2, 2, 4, uint64(1), float64(100))
	f.Add(uint8(2), 4, 4, 2, 0, uint64(1), float64(40))
	f.Add(uint8(3), 10, 6, 3, 0, uint64(7), float64(100))
	f.Add(uint8(4), 3, 4, 2, 0, uint64(2), float64(100))
	f.Add(uint8(5), 3, 2, 1, 0, uint64(0), float64(400))
	f.Add(uint8(6), 3, 3, 3, 2, uint64(0), float64(100))
	f.Add(uint8(7), 5, 1, 0, 0, uint64(0), float64(100))
	f.Add(uint8(8), 4, 2, 4, 8, uint64(0), float64(100))
	f.Add(uint8(9), 2, 2, 1, 2, uint64(0), float64(100))
	f.Add(uint8(10), 12, 8, 4, 0, uint64(9), float64(100))
	// Regression shapes: zero and negative parameters everywhere.
	f.Add(uint8(3), 0, 0, 0, 0, uint64(0), float64(0))
	f.Add(uint8(4), -1, -1, -1, -1, uint64(1), float64(-5))
	f.Add(uint8(10), -2, 0, -1, 3, uint64(0), float64(-1))
	f.Fuzz(func(t *testing.T, gen uint8, a, b, c, d int, seed uint64, rate float64) {
		a, b = clampParam(a, 24), clampParam(b, 24)
		c, d = clampParam(c, 12), clampParam(d, 12)
		r := units.Gbps(rate)
		var (
			topo *Topology
			err  error
		)
		switch gen % 11 {
		case 0:
			topo, err = FatTree(FatTreeConfig{K: a, Rate: r})
		case 1:
			topo, err = LeafSpine(LeafSpineConfig{Leaves: a, Spines: b, UplinksPerTor: c,
				ServerPorts: d, LeafRadix: a + c, SpineRadix: b, Rate: r})
		case 2:
			topo, err = VL2(VL2Config{DA: a, DI: b, ServerPorts: c, Rate: r})
		case 3:
			topo, err = Jellyfish(JellyfishConfig{N: a, K: b, R: c, Rate: r, Seed: seed})
		case 4:
			topo, err = Xpander(XpanderConfig{D: a, Lift: b, ServerPorts: c, Rate: r, Seed: seed})
		case 5:
			// Butterfly size is C^Dims — exponential in its params,
			// unlike every other generator — so fold tighter to keep
			// valid builds inside the fuzzer's per-input deadline
			// (6^4 = 1296 switches max). The oversize rejection path
			// has its own unit test in validate_test.go.
			topo, err = FlattenedButterfly(FlattenedButterflyConfig{
				C: clampParam(a, 6), Dims: clampParam(b, 4), ServerPorts: c, Rate: r})
		case 6:
			topo, err = FatClique(FatCliqueConfig{Ks: a, Kb: b, Kf: c, ServerPorts: d, Rate: r})
		case 7:
			topo, err = SlimFly(SlimFlyConfig{Q: a, ServerPorts: b, Rate: r})
		case 8:
			topo, err = JupiterSpine(JupiterConfig{AggBlocks: a, SpineBlocks: b, TrunkWidth: c,
				UplinksPer: b * c, ServerPorts: d, Rate: r})
		case 9:
			topo, err = TransitMesh(TransitMeshConfig{OldBlocks: a, NewBlocks: b, TransitBlocks: c,
				OldRate: r, NewRate: r, LinksWithinMesh: d, LinksToTransit: 1})
		case 10:
			topo, err = FlatRandom(FlatRandomConfig{N: a, K: b, R: c, Rate: r, Seed: seed})
		}
		if err != nil {
			return
		}
		if topo == nil {
			t.Fatalf("gen %d returned nil topology and nil error", gen%11)
		}
		if verr := topo.Validate(); verr != nil {
			t.Fatalf("gen %d built an invalid topology: %v", gen%11, verr)
		}
		checkStructure(t, topo)
	})
}

// checkStructure fails t unless every node's ID is its index, labels are
// unique, every live edge sits in both endpoints' adjacency rows, and
// each row ascends by edge ID and is exactly as long as the node's count
// of live edge ends.
func checkStructure(t *testing.T, topo *Topology) {
	t.Helper()
	if len(topo.Nodes) != topo.N {
		t.Fatalf("%s: %d nodes for N=%d", topo.Name, len(topo.Nodes), topo.N)
	}
	labels := make(map[string]int, topo.N)
	for i, n := range topo.Nodes {
		if n.ID != i {
			t.Fatalf("%s: node %d has ID %d", topo.Name, i, n.ID)
		}
		if j, dup := labels[n.Label]; dup {
			t.Fatalf("%s: nodes %d and %d share label %q", topo.Name, j, i, n.Label)
		}
		labels[n.Label] = i
	}
	ends := make([]int, topo.N)
	rows := make([][]int, topo.N)
	for u := range rows {
		rows[u] = topo.IncidentEdges(u)
		if !slices.IsSorted(rows[u]) {
			t.Fatalf("%s: node %d's row %v does not ascend", topo.Name, u, rows[u])
		}
	}
	for _, e := range topo.Edges {
		if e.U == -1 {
			continue
		}
		ends[e.U]++
		ends[e.V]++
		if !slices.Contains(rows[e.U], e.ID) || !slices.Contains(rows[e.V], e.ID) {
			t.Fatalf("%s: edge %+v missing from an endpoint's row", topo.Name, e)
		}
	}
	for u, row := range rows {
		if len(row) != ends[u] || topo.Degree(u) != ends[u] {
			t.Fatalf("%s: node %d's row holds %d edges (degree %d), %d live edge ends",
				topo.Name, u, len(row), topo.Degree(u), ends[u])
		}
	}
}
