package topology

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestFlatRandomWireMatchesReference pins the bulk build to the
// reference wiring: over many seeds, on repair-heavy small fabrics (N
// just above R, both parities) and at the bench sizes, both must give
// the same error, the same edge list in order (tombstones included), the
// same nodes and labels, the same adjacency slot order, and leave the
// RNG at the same next draw.
func TestFlatRandomWireMatchesReference(t *testing.T) {
	type shape struct{ n, r, seeds int }
	var shapes []shape
	for r := 2; r <= 8; r++ {
		for n := r + 1; n <= r+4; n++ {
			if n*r%2 == 0 {
				shapes = append(shapes, shape{n, r, 200})
			}
		}
	}
	shapes = append(shapes, shape{40, 12, 50}, shape{1000, 12, 3}, shape{1800, 12, 2},
		shape{3000, 12, 2}, shape{5000, 12, 1})
	for _, sh := range shapes {
		cfg := FlatRandomConfig{N: sh.n, K: sh.r + 4, R: sh.r, Rate: 100}
		for seed := uint64(0); seed < uint64(sh.seeds); seed++ {
			name := fmt.Sprintf("n=%d r=%d seed=%d", sh.n, sh.r, seed)
			rngA := rand.New(rand.NewPCG(seed, seed^flatSeedMix))
			rngB := rand.New(rand.NewPCG(seed, seed^flatSeedMix))
			got, errA := flatRandomWire(cfg, rngA)
			want, errB := refFlatRandomWire(cfg, rngB)
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("%s: error %v, reference %v", name, errA, errB)
			}
			if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
				t.Fatalf("%s: next draw %#x, reference %#x", name, a, b)
			}
			if errA != nil {
				continue
			}
			requireSameFabric(t, name, got, want)
		}
	}
}

// requireSameFabric fails t unless got and want have the same name,
// nodes, edge list (tombstones included) and adjacency slot order.
func requireSameFabric(t *testing.T, name string, got, want *Topology) {
	t.Helper()
	if got.Name != want.Name || got.N != want.N {
		t.Fatalf("%s: %q with %d nodes, reference %q with %d", name, got.Name, got.N, want.Name, want.N)
	}
	if !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: edge lists differ", name)
	}
	if !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("%s: nodes differ", name)
	}
	for u := 0; u < got.N; u++ {
		if !slices.Equal(got.IncidentEdges(u), want.IncidentEdges(u)) {
			t.Fatalf("%s: node %d's adjacency row differs", name, u)
		}
	}
}

// flatRandomWire is one wiring attempt as a plain fabric, the shape the
// reference returns.
func flatRandomWire(cfg FlatRandomConfig, rng *rand.Rand) (*Topology, error) {
	w, err := wireFlatRandom(cfg, rng)
	if err != nil {
		return nil, err
	}
	return w.t, nil
}

// TestFlatWiringConnectedMatchesGraph pins the neighbour-table BFS that
// FlatRandom's attempts check to graph.Connected on the built fabric.
// R=2 wires unions of cycles, so most of its attempts are disconnected;
// R=3…12 are mostly connected, with small N where they are not.
func TestFlatWiringConnectedMatchesGraph(t *testing.T) {
	verdicts := map[bool]int{}
	for r := 2; r <= 12; r++ {
		for n := r + 1; n <= r+6; n++ {
			if n*r%2 != 0 {
				continue
			}
			cfg := FlatRandomConfig{N: n, K: r + 4, R: r, Rate: 100}
			for seed := uint64(0); seed < 100; seed++ {
				w, err := wireFlatRandom(cfg, rand.New(rand.NewPCG(seed, seed^flatSeedMix)))
				if err != nil {
					continue // no splice: the attempt never reaches the check
				}
				got, want := w.connected(), w.t.Connected()
				if got != want {
					t.Fatalf("n=%d r=%d seed=%d: table says connected=%v, graph says %v", n, r, seed, got, want)
				}
				verdicts[got]++
			}
		}
	}
	if verdicts[false] == 0 || verdicts[true] == 0 {
		t.Fatalf("verdicts %v: the shapes must give both answers", verdicts)
	}
}

// TestFlatRandomAllocs pins the bulk build's allocation count: the
// per-node labels and the per-link row growth are gone, so the count no
// longer scales with the fabric (the per-link build made 20,822 here).
func TestFlatRandomAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg := FlatRandomConfig{N: 3000, K: 24, R: 12, Rate: 100, Seed: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := FlatRandom(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 100
	if allocs > ceiling {
		t.Errorf("FlatRandom(n=3000, r=12): %.0f allocs, ceiling %d", allocs, ceiling)
	}
}

// refFlatRandomWire is the stub-matching attempt as it was before the
// bulk build: one AddSwitch and one Sprintf label per node, and
// HasEdgeBetween over edge records for every "already linked?" check.
// It is the reference flatRandomWire must match edge for edge.
func refFlatRandomWire(cfg FlatRandomConfig, rng *rand.Rand) (*Topology, error) {
	t := NewTopology(fmt.Sprintf("flatrandom-n%d-r%d", cfg.N, cfg.R))
	for i := 0; i < cfg.N; i++ {
		t.AddSwitch(Node{Role: RoleToR, Radix: cfg.K, Rate: cfg.Rate,
			ServerPorts: cfg.K - cfg.R, Pod: -1, Label: fmt.Sprintf("tor-%d", i)})
	}
	// Each node contributes R stubs; one shuffle, then pair consecutive
	// stubs. Pairs that would self-loop or duplicate an existing link are
	// deferred rather than rejected — rejecting would bias the degree
	// sequence, deferring keeps every stub alive for the repair passes.
	stubs := make([]int32, cfg.N*cfg.R)
	pos := 0
	for u := 0; u < cfg.N; u++ {
		for p := 0; p < cfg.R; p++ {
			stubs[pos] = int32(u)
			pos++
		}
	}
	leftover := refFlatPairPass(t, stubs, rng)
	// A fresh shuffle of the leftover stubs resolves most collisions —
	// they were colliding against each other, and the pool is tiny.
	for pass := 0; pass < 4 && len(leftover) > 2; pass++ {
		leftover = refFlatPairPass(t, leftover, rng)
	}
	// Whatever still collides is spliced into the existing wiring: for a
	// stuck pair (u, v), find a random edge (a, b) with all four endpoints
	// distinct and (u,a), (v,b) both new, replace (a, b) with those two
	// links. Degrees of a and b are unchanged; u and v each consume the
	// stuck stub.
	for i := 0; i+1 < len(leftover); i += 2 {
		u, v := int(leftover[i]), int(leftover[i+1])
		if u != v && !t.HasEdgeBetween(u, v) {
			t.Link(u, v)
			continue
		}
		if !refFlatSplice(t, u, v, rng) {
			return nil, fmt.Errorf("flatrandom: no splice for stuck pair (%d, %d)", u, v)
		}
	}
	return t, nil
}

// refFlatPairPass shuffles stubs and links consecutive pairs, returning the
// stubs of pairs that would have formed a self-loop or duplicate link.
// The returned slice always has even length.
func refFlatPairPass(t *Topology, stubs []int32, rng *rand.Rand) []int32 {
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	leftover := stubs[:0]
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := int(stubs[i]), int(stubs[i+1])
		if u != v && !t.HasEdgeBetween(u, v) {
			t.Link(u, v)
			continue
		}
		leftover = append(leftover, int32(u), int32(v))
	}
	return leftover
}

// refFlatSplice resolves a stuck stub pair (u, v) by probing random live
// edges for a compatible (a, b) to splice through. Bounded probes keep
// the repair O(1) expected; a false return aborts the attempt and the
// caller re-seeds.
func refFlatSplice(t *Topology, u, v int, rng *rand.Rand) bool {
	for try := 0; try < 256; try++ {
		e := t.Edges[rng.IntN(len(t.Edges))]
		if e.U == -1 {
			continue // tombstone from an earlier splice
		}
		a, b := e.U, e.V
		if a == u || a == v || b == u || b == v {
			continue
		}
		if t.HasEdgeBetween(u, a) || t.HasEdgeBetween(v, b) {
			// Try the flipped assignment before giving up on this edge.
			a, b = b, a
			if t.HasEdgeBetween(u, a) || t.HasEdgeBetween(v, b) {
				continue
			}
		}
		t.RemoveEdge(e.ID)
		t.Link(u, a)
		t.Link(v, b)
		return true
	}
	return false
}
