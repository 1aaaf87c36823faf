package topology

import (
	"fmt"
	"math/rand/v2"

	"physdep/internal/physerr"
	"physdep/internal/units"
)

// XpanderConfig parameterizes an Xpander fabric (Valadarsky et al.
// CoNEXT'16): a random k-lift of the complete graph K_{D+1}, giving
// (D+1)·Lift ToRs each with D network ports. The lift construction is
// what lets Xpander keep nodes organized into D+1 "meta-nodes", which the
// paper argues eases cabling compared to Jellyfish's unstructured
// randomness.
type XpanderConfig struct {
	D           int // network ports per ToR = degree of K_{D+1}
	Lift        int // lift factor k ≥ 1; k = 1 is K_{D+1} itself
	ServerPorts int // server ports per ToR
	Rate        units.Gbps
	Seed        uint64
}

// Xpander builds the lifted expander. Each edge (i, j) of K_{D+1} becomes
// a random perfect matching between the Lift copies of meta-node i and the
// Lift copies of meta-node j, so every ToR gets exactly one link per
// neighboring meta-node and the D-regularity of K_{D+1} is preserved.
func Xpander(cfg XpanderConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x78706472)) // "xpdr"
	meta := cfg.D + 1
	// node ID of copy c of meta-node m = m*Lift + c
	t := newFabric(fmt.Sprintf("xpander-d%d-l%d", cfg.D, cfg.Lift), meta*cfg.D/2*cfg.Lift, func(f *fabric) {
		for m := 0; m < meta; m++ {
			f.switches(cfg.Lift, cfg.D, Node{Role: RoleToR, Radix: cfg.D + cfg.ServerPorts, Rate: cfg.Rate,
				ServerPorts: cfg.ServerPorts, Pod: m}, "tor-", m)
		}
	})
	// Each matching is rng.Perm(Lift), drawn into one reused buffer.
	perm := make([]int, cfg.Lift)
	for i := 0; i < meta; i++ {
		for j := i + 1; j < meta; j++ {
			for c := range perm {
				perm[c] = c
			}
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			for c := 0; c < cfg.Lift; c++ {
				t.Link(i*cfg.Lift+c, j*cfg.Lift+perm[c])
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}

// XpanderAddToR grows a built Xpander by one ToR in meta-node m, using the
// incremental procedure from the paper: the new ToR steals one endpoint
// from D/2 existing links whose endpoints lie in other meta-nodes, so the
// new node reaches D distinct meta-neighbors while existing nodes keep
// their degree. Returns the new node ID and the rewires performed, one
// per broken live link (the paper's headline "as many as d/2 links must
// be rewired per added ToR" — the physical cost E3 measures); the rewire
// records name exactly the in-service switches touched.
func XpanderAddToR(t *Topology, cfg XpanderConfig, m int, rng *rand.Rand) (newID int, rewires []Rewire, err error) {
	if m < 0 || m > cfg.D {
		return 0, nil, physerr.OutOfRange("xpander: meta-node %d out of range [0,%d]", m, cfg.D)
	}
	newID = t.AddSwitch(Node{Role: RoleToR, Radix: cfg.D + cfg.ServerPorts, Rate: cfg.Rate,
		ServerPorts: cfg.ServerPorts, Pod: m, Label: fmt.Sprintf("tor-%d-new%d", m, t.N)})
	// Find links (a, b) with both endpoints outside meta-node m and not
	// already used; replace (a, b) with (new, a) and (new, b). Each such
	// splice consumes 2 of the new node's D ports and rewires 1 link.
	need := cfg.D / 2
	live := liveEdgeIDs(nil, t)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, id := range live {
		if len(rewires) == need {
			break
		}
		e := t.Edges[id]
		if !t.Live(id) || e.U == newID || e.V == newID {
			continue
		}
		if t.Nodes[e.U].Pod == m || t.Nodes[e.V].Pod == m {
			continue
		}
		if t.HasEdgeBetween(newID, e.U) || t.HasEdgeBetween(newID, e.V) {
			continue
		}
		rewires = append(rewires, t.Splice(newID, id))
	}
	if len(rewires) < need {
		return newID, rewires, physerr.Infeasible("xpander: only %d of %d splices found for new ToR", len(rewires), need)
	}
	return newID, rewires, nil
}
