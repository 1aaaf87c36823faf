package topology

import (
	"fmt"

	"physdep/internal/units"
)

// JupiterConfig parameterizes a block-level model of Google's Jupiter
// fabric for the §4.3 case study. Nodes are whole aggregation blocks and
// spine blocks rather than individual switches: the fat-tree→direct-
// connect conversion the paper describes operates at exactly this
// granularity (moving trunk fibers between blocks at the OCS layer).
type JupiterConfig struct {
	AggBlocks   int        // number of aggregation blocks
	SpineBlocks int        // number of spine blocks (spine variant only)
	TrunkWidth  int        // parallel fibers per agg→spine trunk
	UplinksPer  int        // total uplink fibers per aggregation block
	ServerPorts int        // server-facing capacity per agg block (bookkeeping)
	Rate        units.Gbps // per-fiber rate
}

// JupiterSpine builds the original Jupiter shape: every aggregation block
// trunks to every spine block with TrunkWidth parallel fibers (all
// physically routed through the OCS/patch layer). UplinksPer must equal
// SpineBlocks·TrunkWidth.
func JupiterSpine(cfg JupiterConfig) (*Topology, error) {
	if err := cfg.validateSpine(); err != nil {
		return nil, err
	}
	// Node IDs: the aggregation blocks, then the spine blocks.
	t := newFabric(fmt.Sprintf("jupiter-spine-a%d-s%d", cfg.AggBlocks, cfg.SpineBlocks),
		cfg.AggBlocks*cfg.UplinksPer, func(f *fabric) {
			aggs := f.switches(cfg.AggBlocks, cfg.UplinksPer, Node{Role: RoleAgg,
				Radix: cfg.UplinksPer + cfg.ServerPorts, Rate: cfg.Rate, ServerPorts: cfg.ServerPorts}, "agg-")
			for a := range aggs {
				aggs[a].Pod = a
			}
			f.switches(cfg.SpineBlocks, cfg.AggBlocks*cfg.TrunkWidth, Node{Role: RoleSpine,
				Radix: cfg.AggBlocks * cfg.TrunkWidth, Rate: cfg.Rate, Pod: -1}, "spine-")
		})
	for s := 0; s < cfg.SpineBlocks; s++ {
		for a := 0; a < cfg.AggBlocks; a++ {
			for w := 0; w < cfg.TrunkWidth; w++ {
				t.Link(a, cfg.AggBlocks+s)
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}

// JupiterDirect builds the evolved, spine-free Jupiter: aggregation
// blocks are directly meshed through the OCS layer. Each ordered pair of
// blocks gets ⌊UplinksPer/(AggBlocks−1)⌋ fibers, and leftover uplinks are
// distributed to the lexicographically first peers, mirroring the uniform
// base mesh that topology engineering then skews toward demand.
func JupiterDirect(cfg JupiterConfig) (*Topology, error) {
	if err := cfg.validateDirect(); err != nil {
		return nil, err
	}
	n := cfg.AggBlocks
	// Each block's row holds its whole uplink budget, an upper bound on
	// the links the mesh gives it.
	t := newFabric(fmt.Sprintf("jupiter-direct-a%d", n), n*cfg.UplinksPer/2, func(f *fabric) {
		aggs := f.switches(n, cfg.UplinksPer, Node{Role: RoleAgg, Radix: cfg.UplinksPer + cfg.ServerPorts,
			Rate: cfg.Rate, ServerPorts: cfg.ServerPorts}, "agg-")
		for a := range aggs {
			aggs[a].Pod = a
		}
	})
	base := cfg.UplinksPer / (n - 1)
	extra := cfg.UplinksPer % (n - 1)
	// Pair (a, b), a < b: width = base, plus 1 while both sides have
	// leftover budget. Distribute extras to the earliest pairs of each
	// node, tracking per-node extra budget so no node exceeds UplinksPer.
	budget := make([]int, n)
	for a := range budget {
		budget[a] = extra
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			w := base
			if budget[a] > 0 && budget[b] > 0 {
				w++
				budget[a]--
				budget[b]--
			}
			for i := 0; i < w; i++ {
				t.Link(a, b)
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}
