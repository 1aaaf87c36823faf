package topology

import (
	"fmt"
	"math/rand/v2"
	"slices"

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
	w, err := wireJellyfish(cfg, rng)
	if err != nil {
		return nil, fmt.Errorf("jellyfish: %w", err)
	}
	if err := w.t.validate(w.connected); err != nil {
		return nil, err
	}
	return w.t, nil
}

// wireJellyfish builds the switches in their final shape (newFabric) and
// wires them on a node-ID neighbour table (jellyWiring).
func wireJellyfish(cfg JellyfishConfig, rng *rand.Rand) (*jellyWiring, error) {
	f := newFabric(fmt.Sprintf("jellyfish-n%d-r%d", cfg.N, cfg.R), cfg.N*cfg.R/2+jellySpliceRoom, func(f *fabric) {
		f.switches(cfg.N, cfg.R, Node{Role: RoleToR, Radix: cfg.K, Rate: cfg.Rate,
			ServerPorts: cfg.K - cfg.R, Pod: -1}, "tor-")
	})
	w := newJellyWiring(&f.Topology, cfg.R)
	return w, w.wire(rng)
}

// jellySpliceRoom is the edge-list room a Jellyfish build reserves past
// its N·R/2 links: each splice of the wiring leaves one tombstone, and a
// build splices about once on average (never more than five times over
// 3,000 seeds of each of the benchmark's shapes).
const jellySpliceRoom = 8

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
	var live []int
	for len(rewires) < need {
		live = liveEdgeIDs(live, t)
		id, ok := spliceCandidate(t, newID, live, t.HasEdgeBetween, rng)
		if !ok {
			return newID, rewires, physerr.Infeasible("jellyfish: only %d of %d splices found", len(rewires), need)
		}
		rewires = append(rewires, t.Splice(newID, id))
	}
	return newID, rewires, nil
}

// jellyWiring is one Jellyfish wiring: the neighbour table, the open
// list — the switches with free ports, ascending — and scratch for the
// live link IDs a splice shuffles. Every link made or broken updates the
// open list in place, so before each draw it is exactly the list a
// rescan of every switch would build, and every draw is the same.
type jellyWiring struct {
	wiring
	open []int32
	live []int
}

func newJellyWiring(t *Topology, r int) *jellyWiring {
	w := &jellyWiring{wiring: newWiring(t, r), open: make([]int32, t.N)}
	for u := range w.open {
		w.open[u] = int32(u)
	}
	return w
}

// wire joins random pairs of open switches into an r-regular simple
// graph, splicing through an existing link when no legal pair turns up.
func (w *jellyWiring) wire(rng *rand.Rand) error {
	n, r := len(w.deg), w.r
	for attempts := 0; ; attempts++ {
		if attempts > 200*n*r {
			return physerr.Infeasible("random regular wiring did not converge (n=%d r=%d)", n, r)
		}
		if len(w.open) == 0 {
			return nil
		}
		// Try random legal pair among open nodes.
		placed := false
		for try := 0; try < 50; try++ {
			u := int(w.open[rng.IntN(len(w.open))])
			v := int(w.open[rng.IntN(len(w.open))])
			if u != v && !w.linked(u, v) {
				w.join(u, v)
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
		u := int(w.open[rng.IntN(len(w.open))])
		if r-int(w.deg[u]) < 2 {
			// With one free port we cannot splice; pair two open nodes via
			// double swap: pick edge (a,b) where a not adjacent to u, then
			// rewire (a,b)+(u free) -> (u,a) leaving b open for a later pass.
			if !w.spliceSingle(u, rng) {
				return physerr.Infeasible("wiring stuck with odd remainder at node %d", u)
			}
			continue
		}
		w.live = liveEdgeIDs(w.live, w.t)
		id, ok := spliceCandidate(w.t, u, w.live, w.linked, rng)
		if !ok {
			return physerr.Infeasible("wiring stuck: no splice candidate for node %d", u)
		}
		a, b := w.cut(id)
		w.join(u, a)
		w.join(u, b)
	}
}

// join links u and v and drops from the open list whichever of them
// fills.
func (w *jellyWiring) join(u, v int) {
	w.link(u, v)
	for _, x := range [2]int{u, v} {
		if int(w.deg[x]) == w.r {
			i, _ := slices.BinarySearch(w.open, int32(x))
			w.open = slices.Delete(w.open, i, i+1)
		}
	}
}

// cut breaks live link id, puts back on the open list whichever end was
// full, and returns the ends.
func (w *jellyWiring) cut(id int) (a, b int) {
	a, b = w.unlink(id)
	for _, x := range [2]int{a, b} {
		if int(w.deg[x]) == w.r-1 {
			i, _ := slices.BinarySearch(w.open, int32(x))
			w.open = slices.Insert(w.open, i, int32(x))
		}
	}
	return a, b
}

// spliceCandidate shuffles live, t's live link IDs, and returns the
// first link whose ends are distinct from u and not linked to it: the
// link the Jellyfish repair replaces with two links to u.
func spliceCandidate(t *Topology, u int, live []int, linked func(a, b int) bool, rng *rand.Rand) (int, bool) {
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, id := range live {
		e := t.Edges[id]
		if e.U == u || e.V == u || linked(u, e.U) || linked(u, e.V) {
			continue
		}
		return id, true
	}
	return 0, false
}

// spliceSingle frees progress when u has exactly one free port: remove an
// edge (a, b) with a non-adjacent to u, add (u, a); b regains a free port
// and the outer loop continues.
func (w *jellyWiring) spliceSingle(u int, rng *rand.Rand) bool {
	w.live = liveEdgeIDs(w.live, w.t)
	live := w.live
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, id := range live {
		e := w.t.Edges[id]
		if e.U == u || e.V == u {
			continue
		}
		var a int
		switch {
		case !w.linked(u, e.U):
			a = e.U
		case !w.linked(u, e.V):
			a = e.V
		default:
			continue
		}
		w.cut(id)
		w.join(u, a)
		return true
	}
	return false
}
