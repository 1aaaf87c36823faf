package topology

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"physdep/internal/physerr"
)

// TestJellyfishWireMatchesReference pins the bulk build to the reference
// wiring: over many seeds, on splice-heavy small fabrics (N just above R)
// and at the benchmark's sizes, both must give the same error, the same
// edge list in order (tombstones included), the same nodes and labels,
// the same adjacency slot order and the same connectivity verdict, and
// leave the RNG at the same next draw.
func TestJellyfishWireMatchesReference(t *testing.T) {
	type shape struct{ n, k, r, seeds int }
	var shapes []shape
	for r := 1; r <= 8; r++ {
		for n := r + 1; n <= r+5; n++ {
			if n*r%2 == 0 {
				shapes = append(shapes, shape{n, r + 2, r, 100})
			}
		}
	}
	shapes = append(shapes, shape{20, 8, 4, 200}, shape{24, 8, 4, 100}, shape{64, 16, 8, 40},
		shape{96, 16, 8, 40}, shape{2000, 16, 8, 1})
	for _, sh := range shapes {
		for seed := uint64(0); seed < uint64(sh.seeds); seed++ {
			cfg := JellyfishConfig{N: sh.n, K: sh.k, R: sh.r, Rate: 100, Seed: seed}
			name := fmt.Sprintf("n=%d r=%d seed=%d", sh.n, sh.r, seed)
			rngA := rand.New(rand.NewPCG(seed, seed^jellySeedMix))
			rngB := rand.New(rand.NewPCG(seed, seed^jellySeedMix))
			w, errA := wireJellyfish(cfg, rngA)
			want, errB := refJellyfishWire(cfg, rngB)
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("%s: error %v, reference %v", name, errA, errB)
			}
			if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
				t.Fatalf("%s: next draw %#x, reference %#x", name, a, b)
			}
			if errA != nil {
				continue
			}
			requireSameFabric(t, name, w.t, want)
			if a, b := w.connected(), want.Connected(); a != b {
				t.Fatalf("%s: table says connected=%v, reference graph says %v", name, a, b)
			}
		}
	}
}

// refJellyfishWire is the Jellyfish wiring as it was before the bulk
// build: one AddSwitch and one Sprintf label per node, a rescan of every
// node for the open list before each attempt, and HasEdgeBetween over
// edge records for every "already linked?" check. It is the reference
// wireJellyfish must match edge for edge.
func refJellyfishWire(cfg JellyfishConfig, rng *rand.Rand) (*Topology, error) {
	t := NewTopology(fmt.Sprintf("jellyfish-n%d-r%d", cfg.N, cfg.R))
	for i := 0; i < cfg.N; i++ {
		t.AddSwitch(Node{Role: RoleToR, Radix: cfg.K, Rate: cfg.Rate,
			ServerPorts: cfg.K - cfg.R, Pod: -1, Label: fmt.Sprintf("tor-%d", i)})
	}
	n, r := t.N, cfg.R
	free := func(u int) int { return r - t.Degree(u) }
	var open []int
	for attempts := 0; ; attempts++ {
		if attempts > 200*n*r {
			return nil, physerr.Infeasible("random regular wiring did not converge (n=%d r=%d)", n, r)
		}
		open = open[:0]
		for u := 0; u < n; u++ {
			if free(u) > 0 {
				open = append(open, u)
			}
		}
		if len(open) == 0 {
			return t, nil
		}
		placed := false
		for try := 0; try < 50; try++ {
			u := open[rng.IntN(len(open))]
			v := open[rng.IntN(len(open))]
			if u != v && !t.HasEdgeBetween(u, v) {
				t.Link(u, v)
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		u := open[rng.IntN(len(open))]
		if free(u) < 2 {
			if !refSpliceSingle(t, u, rng) {
				return nil, physerr.Infeasible("wiring stuck with odd remainder at node %d", u)
			}
			continue
		}
		if !refSpliceDouble(t, u, rng) {
			return nil, physerr.Infeasible("wiring stuck: no splice candidate for node %d", u)
		}
	}
}

// refSpliceDouble removes a random edge (a, b) with a, b both distinct
// from u and non-adjacent to it, then adds (u, a) and (u, b).
func refSpliceDouble(t *Topology, u int, rng *rand.Rand) bool {
	live := refLiveEdgeIDs(t)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, id := range live {
		e := t.Edges[id]
		if e.U == u || e.V == u || t.HasEdgeBetween(u, e.U) || t.HasEdgeBetween(u, e.V) {
			continue
		}
		t.Splice(u, id)
		return true
	}
	return false
}

// refSpliceSingle removes an edge (a, b) with a non-adjacent to u and
// adds (u, a); b regains a free port.
func refSpliceSingle(t *Topology, u int, rng *rand.Rand) bool {
	live := refLiveEdgeIDs(t)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, id := range live {
		e := t.Edges[id]
		if e.U == u || e.V == u {
			continue
		}
		var a int
		switch {
		case !t.HasEdgeBetween(u, e.U):
			a = e.U
		case !t.HasEdgeBetween(u, e.V):
			a = e.V
		default:
			continue
		}
		t.RemoveEdge(id)
		t.Link(u, a)
		return true
	}
	return false
}

func refLiveEdgeIDs(t *Topology) []int {
	var ids []int
	for _, e := range t.Edges {
		if e.U != -1 {
			ids = append(ids, e.ID)
		}
	}
	return ids
}
