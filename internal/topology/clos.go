package topology

import (
	"fmt"

	"physdep/internal/units"
)

// FatTreeConfig parameterizes a classic 3-tier folded-Clos fat-tree
// (Al-Fares et al.): k pods of k/2 edge (ToR) and k/2 aggregation
// switches, with (k/2)² core switches; every switch has radix k and the
// network supports k³/4 servers at full bisection.
type FatTreeConfig struct {
	K    int        // switch radix; must be even and ≥ 2
	Rate units.Gbps // uniform line rate
}

// FatTree builds the fat-tree described by cfg.
func FatTree(cfg FatTreeConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := cfg.K
	half := k / 2
	// Node IDs: the (k/2)² cores, then per pod its k/2 aggregation
	// switches followed by its k/2 ToRs.
	t := newFabric(fmt.Sprintf("fattree-k%d", k), k*k*k/2, func(f *fabric) {
		f.switches(half*half, k, Node{Role: RoleCore, Radix: k, Rate: cfg.Rate, Pod: -1}, "core-")
		for p := 0; p < k; p++ {
			f.switches(half, k, Node{Role: RoleAgg, Radix: k, Rate: cfg.Rate, Pod: p}, "agg-", p)
			f.switches(half, half, Node{Role: RoleToR, Radix: k, Rate: cfg.Rate, Pod: p,
				ServerPorts: half}, "tor-", p)
		}
	})
	for p := 0; p < k; p++ {
		agg := half*half + p*k // pod p's first aggregation switch
		// Aggregation switch a in each pod connects to core group a
		// (cores a*half .. a*half+half-1).
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				t.Link(agg+a, a*half+c)
			}
		}
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				t.Link(agg+half+e, agg+a)
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}

// LeafSpineConfig parameterizes a 2-tier leaf–spine fabric.
type LeafSpineConfig struct {
	Leaves        int // number of leaf (ToR) switches
	Spines        int // number of spine switches
	UplinksPerTor int // links from each leaf to the spine tier (spread round-robin)
	ServerPorts   int // server ports per leaf
	LeafRadix     int
	SpineRadix    int
	Rate          units.Gbps
}

// LeafSpine builds a leaf–spine fabric. Each leaf's uplinks are dealt
// round-robin across spines, which yields the usual uniform striping when
// UplinksPerTor is a multiple of Spines and a balanced partial striping
// otherwise.
func LeafSpine(cfg LeafSpineConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A spine's row holds the average uplink load; the round-robin deal
	// can leave a few spines one or more links over it, and their rows
	// grow on their own.
	spineDeg := (cfg.Leaves*cfg.UplinksPerTor + cfg.Spines - 1) / cfg.Spines
	t := newFabric(fmt.Sprintf("leafspine-%dx%d", cfg.Leaves, cfg.Spines), cfg.Leaves*cfg.UplinksPerTor, func(f *fabric) {
		f.switches(cfg.Spines, spineDeg, Node{Role: RoleSpine, Radix: cfg.SpineRadix, Rate: cfg.Rate,
			Pod: -1}, "spine-")
		leaves := f.switches(cfg.Leaves, cfg.UplinksPerTor, Node{Role: RoleToR, Radix: cfg.LeafRadix,
			Rate: cfg.Rate, ServerPorts: cfg.ServerPorts}, "leaf-")
		for l := range leaves {
			leaves[l].Pod = l
		}
	})
	for l := 0; l < cfg.Leaves; l++ {
		for u := 0; u < cfg.UplinksPerTor; u++ {
			t.Link(cfg.Spines+l, (l+u)%cfg.Spines)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}

// VL2Config parameterizes the VL2 fabric (Greenberg et al. SIGCOMM'09):
// ToRs dual-home to aggregation switches; aggregation switches form a
// complete bipartite graph with intermediate switches.
type VL2Config struct {
	DA          int // aggregation switch radix (ports toward intermediates and ToRs, split evenly)
	DI          int // intermediate switch radix
	ServerPorts int // server ports per ToR
	Rate        units.Gbps
}

// VL2 builds the fabric: DI aggregation switches, DA/2 intermediate
// switches, and DA·DI/4 ToRs, per the paper's sizing.
func VL2(cfg VL2Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nAgg := cfg.DI
	nInt := cfg.DA / 2
	nToR := cfg.DA * cfg.DI / 4
	// Node IDs: intermediates, then aggregation switches, then ToRs. The
	// ToRs' 2·nToR = DA·DI/2 uplinks deal evenly onto the DI
	// aggregation switches, DA/2 each.
	t := newFabric(fmt.Sprintf("vl2-da%d-di%d", cfg.DA, cfg.DI), nAgg*nInt+2*nToR, func(f *fabric) {
		f.switches(nInt, nAgg, Node{Role: RoleIntermediate, Radix: cfg.DI, Rate: cfg.Rate, Pod: -1}, "int-")
		aggs := f.switches(nAgg, nInt+cfg.DA/2, Node{Role: RoleAgg, Radix: cfg.DA, Rate: cfg.Rate}, "agg-")
		for a := range aggs {
			aggs[a].Pod = a
		}
		tors := f.switches(nToR, 2, Node{Role: RoleToR, Radix: cfg.ServerPorts + 2, Rate: cfg.Rate,
			ServerPorts: cfg.ServerPorts}, "tor-")
		for r := range tors {
			tors[r].Pod = r % nAgg
		}
	})
	for a := 0; a < nAgg; a++ {
		for i := 0; i < nInt; i++ {
			t.Link(nInt+a, i)
		}
	}
	for r := 0; r < nToR; r++ {
		// Dual-home to two consecutive aggregation switches.
		t.Link(nInt+nAgg+r, nInt+(2*r)%nAgg)
		t.Link(nInt+nAgg+r, nInt+(2*r+1)%nAgg)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}
