package topology

import (
	"fmt"

	"physdep/internal/units"
)

// FatCliqueConfig parameterizes a FatClique-style fabric (Zhang et al.
// NSDI'19): cliques at three levels of a hierarchy. A sub-block is a full
// mesh of Ks switches; a block is a full mesh of Kb sub-blocks (each
// switch owning one link to every other sub-block in its block); the
// fabric is a full mesh of Kf blocks (each switch owning one link to every
// other block). The FatClique paper argues this layering recovers the
// cable-bundling ability that Jellyfish lacks while keeping expander-like
// path diversity; E1/E3 quantify exactly that.
type FatCliqueConfig struct {
	Ks          int // switches per sub-block
	Kb          int // sub-blocks per block
	Kf          int // blocks
	ServerPorts int
	Rate        units.Gbps
}

// FatClique builds the hierarchy. Network degree per switch is
// (Ks−1) + (Kb−1) + (Kf−1).
func FatClique(cfg FatCliqueConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	netDeg := (cfg.Ks - 1) + (cfg.Kb - 1) + (cfg.Kf - 1)
	n := cfg.Kf * cfg.Kb * cfg.Ks
	// id(f, b, s) = ((f*Kb)+b)*Ks + s
	id := func(f, b, s int) int { return (f*cfg.Kb+b)*cfg.Ks + s }
	t := newFabric(fmt.Sprintf("fatclique-%dx%dx%d", cfg.Ks, cfg.Kb, cfg.Kf), n*netDeg/2, func(fb *fabric) {
		for f := 0; f < cfg.Kf; f++ {
			for b := 0; b < cfg.Kb; b++ {
				fb.switches(cfg.Ks, netDeg, Node{Role: RoleToR, Radix: netDeg + cfg.ServerPorts,
					Rate: cfg.Rate, ServerPorts: cfg.ServerPorts, Pod: f}, "sw-", f, b)
			}
		}
	})
	// Level 1: intra-sub-block full mesh.
	for f := 0; f < cfg.Kf; f++ {
		for b := 0; b < cfg.Kb; b++ {
			for s := 0; s < cfg.Ks; s++ {
				for s2 := s + 1; s2 < cfg.Ks; s2++ {
					t.Link(id(f, b, s), id(f, b, s2))
				}
			}
		}
	}
	// Level 2: each switch takes one link to each other sub-block in its
	// block; pair switch s with switch s in the peer sub-block so links
	// are balanced and deterministic.
	for f := 0; f < cfg.Kf; f++ {
		for b := 0; b < cfg.Kb; b++ {
			for b2 := b + 1; b2 < cfg.Kb; b2++ {
				for s := 0; s < cfg.Ks; s++ {
					t.Link(id(f, b, s), id(f, b2, s))
				}
			}
		}
	}
	// Level 3: each switch takes one link to each other block. Spread the
	// endpoints across the peer block's sub-blocks and switches by index
	// arithmetic so inter-block trunks are balanced.
	for f := 0; f < cfg.Kf; f++ {
		for f2 := f + 1; f2 < cfg.Kf; f2++ {
			for b := 0; b < cfg.Kb; b++ {
				for s := 0; s < cfg.Ks; s++ {
					// Peer coordinates rotate with (f2−f) so different
					// block pairs use different matchings.
					pb := (b + f2 - f) % cfg.Kb
					ps := (s + f2 - f) % cfg.Ks
					t.Link(id(f, b, s), id(f2, pb, ps))
				}
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}
