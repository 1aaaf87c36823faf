package topology

import (
	"fmt"
	"math/rand/v2"

	"physdep/internal/physerr"
	"physdep/internal/units"
)

// JellyfishConfig parameterizes a Jellyfish fabric (Singla et al.
// NSDI'12): N ToRs of radix K, each using R ports for a uniformly random
// R-regular network among ToRs and K−R ports for servers.
type JellyfishConfig struct {
	N    int // number of ToRs
	K    int // ToR radix
	R    int // network ports per ToR (R < K)
	Rate units.Gbps
	Seed uint64
}

// Jellyfish builds the random regular graph via the Jellyfish paper's own
// incremental procedure: repeatedly join random pairs of nodes with free
// ports; when stuck with free ports but no legal pair, break a random
// existing edge and splice. The result is simple (no self-loops or
// parallel links) and R-regular whenever N·R is even and R < N.
func Jellyfish(cfg JellyfishConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^jellySeedMix))
	t := NewTopology(fmt.Sprintf("jellyfish-n%d-r%d", cfg.N, cfg.R))
	for i := 0; i < cfg.N; i++ {
		t.AddSwitch(Node{Role: RoleToR, Radix: cfg.K, Rate: cfg.Rate,
			ServerPorts: cfg.K - cfg.R, Pod: -1, Label: fmt.Sprintf("tor-%d", i)})
	}
	if err := randomRegularWire(t, cfg.R, rng); err != nil {
		return nil, fmt.Errorf("jellyfish: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// jellySeedMix decorrelates the two PCG seed words ("jelly" in ASCII).
const jellySeedMix uint64 = 0x6a656c6c79

// JellyfishAddToR grows a Jellyfish by one ToR using the paper's
// incremental procedure: pick R/2 random existing links whose endpoints
// are not yet neighbors of the new node, break each, and connect both
// freed ports to the new ToR. Existing nodes keep their degree; the new
// node reaches R. Returns the new node ID and the rewires performed, one
// per broken live link (always R/2 on success) — the exact record of
// which in-service switches were touched, which the lifecycle layer
// aggregates instead of diffing neighbor fingerprints.
func JellyfishAddToR(t *Topology, cfg JellyfishConfig, rng *rand.Rand) (newID int, rewires []Rewire, err error) {
	if cfg.R%2 != 0 {
		return 0, nil, physerr.OutOfRange("jellyfish: incremental add needs even R, got %d", cfg.R)
	}
	newID = t.AddSwitch(Node{Role: RoleToR, Radix: cfg.K, Rate: cfg.Rate,
		ServerPorts: cfg.K - cfg.R, Pod: -1, Label: fmt.Sprintf("tor-new%d", t.N)})
	need := cfg.R / 2
	for len(rewires) < need {
		rw, ok := spliceDouble(t, newID, rng)
		if !ok {
			return newID, rewires, physerr.Infeasible("jellyfish: only %d of %d splices found", len(rewires), need)
		}
		rewires = append(rewires, rw)
	}
	return newID, rewires, nil
}

// randomRegularWire wires the (currently edge-free among themselves) nodes
// of t into an r-regular simple graph using free network ports. Nodes may
// already have edges; a node's free ports are what its degree still
// lacks of the target r.
func randomRegularWire(t *Topology, r int, rng *rand.Rand) error {
	n := t.N
	free := func(u int) int { return r - t.Degree(u) }
	var open []int
	refresh := func() {
		open = open[:0]
		for u := 0; u < n; u++ {
			if free(u) > 0 {
				open = append(open, u)
			}
		}
	}
	legal := func(u, v int) bool {
		return u != v && !t.HasEdgeBetween(u, v)
	}
	for attempts := 0; ; attempts++ {
		if attempts > 200*n*r {
			return physerr.Infeasible("random regular wiring did not converge (n=%d r=%d)", n, r)
		}
		refresh()
		if len(open) == 0 {
			return nil
		}
		// Try random legal pair among open nodes.
		placed := false
		for try := 0; try < 50; try++ {
			u := open[rng.IntN(len(open))]
			v := open[rng.IntN(len(open))]
			if legal(u, v) {
				t.Link(u, v)
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		// Stuck: the Jellyfish splice. Pick an open node u and a random
		// existing edge (a, b) with a,b ∉ {u} and not adjacent to u; replace
		// (a,b) with (u,a) and (u,b), consuming two of u's free ports.
		u := open[rng.IntN(len(open))]
		if free(u) < 2 {
			// With one free port we cannot splice; pair two open nodes via
			// double swap: pick edge (a,b) where a not adjacent to u, then
			// rewire (a,b)+(u free) -> (u,a) leaving b open for a later pass.
			if !spliceSingle(t, u, rng) {
				return physerr.Infeasible("wiring stuck with odd remainder at node %d", u)
			}
			continue
		}
		if _, ok := spliceDouble(t, u, rng); !ok {
			return physerr.Infeasible("wiring stuck: no splice candidate for node %d", u)
		}
	}
}

// spliceDouble implements the Jellyfish repair: remove a random edge
// (a, b) with a, b both non-adjacent to u and distinct from u, then add
// (u, a) and (u, b). On success it returns the rewire record — the two
// in-service switches whose live link was broken.
func spliceDouble(t *Topology, u int, rng *rand.Rand) (Rewire, bool) {
	live := liveEdgeIDs(t)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, id := range live {
		e := t.Edges[id]
		if e.U == u || e.V == u || t.HasEdgeBetween(u, e.U) || t.HasEdgeBetween(u, e.V) {
			continue
		}
		return t.Splice(u, id), true
	}
	return Rewire{}, false
}

// spliceSingle frees progress when u has exactly one free port: remove an
// edge (a, b) with a non-adjacent to u, add (u, a); b regains a free port
// and the outer loop continues.
func spliceSingle(t *Topology, u int, rng *rand.Rand) bool {
	live := liveEdgeIDs(t)
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

func liveEdgeIDs(t *Topology) []int {
	var ids []int
	for _, e := range t.Edges {
		if e.U != -1 {
			ids = append(ids, e.ID)
		}
	}
	return ids
}
