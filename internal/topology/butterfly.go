package topology

import (
	"fmt"

	"physdep/internal/units"
)

// FlattenedButterflyConfig parameterizes a flattened butterfly (Kim, Dally
// & Abts ISCA'07): switches sit on an n-dimensional grid with C switches
// per dimension, and each switch directly connects to every other switch
// that differs from it in exactly one coordinate. This is the canonical
// "flat" direct-connect topology the paper's §4.1 case study discusses:
// shortest paths, no aggregation tier, but every added rack touches many
// peer racks.
type FlattenedButterflyConfig struct {
	C           int // switches per dimension (concentration of each group)
	Dims        int // number of dimensions n ≥ 1
	ServerPorts int // server ports per switch
	Rate        units.Gbps
}

// FlattenedButterfly builds the topology. Network degree per switch is
// Dims·(C−1).
func FlattenedButterfly(cfg FlattenedButterflyConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := 1
	for d := 0; d < cfg.Dims; d++ {
		n *= cfg.C
	}
	netDeg := cfg.Dims * (cfg.C - 1)
	t := newFabric(fmt.Sprintf("flatbutterfly-c%d-d%d", cfg.C, cfg.Dims), n*netDeg/2, func(f *fabric) {
		sw := f.switches(n, netDeg, Node{Role: RoleToR, Radix: netDeg + cfg.ServerPorts, Rate: cfg.Rate,
			ServerPorts: cfg.ServerPorts}, "tor-")
		for i := range sw {
			sw[i].Pod = i / cfg.C
		}
	})
	// Connect switches differing in exactly one base-C digit.
	stride := 1
	for d := 0; d < cfg.Dims; d++ {
		for i := 0; i < n; i++ {
			digit := (i / stride) % cfg.C
			for v := digit + 1; v < cfg.C; v++ {
				j := i + (v-digit)*stride
				t.Link(i, j)
			}
		}
		stride *= cfg.C
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}
