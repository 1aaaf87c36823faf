package topology

import (
	"fmt"

	"physdep/internal/units"
)

// TransitMeshConfig models the §3.4 heterogeneity pattern from Jupiter
// Evolving (Poutievski et al.): a fabric mid-evolution has OldBlocks of
// a 100G generation and NewBlocks of a 400G generation. Directly
// connecting them forces low-rate links onto the new switches' precious
// ports; instead, TransitBlocks carry ports of both generations and
// bridge the two meshes.
type TransitMeshConfig struct {
	OldBlocks     int
	NewBlocks     int
	TransitBlocks int
	OldRate       units.Gbps // e.g. 100
	NewRate       units.Gbps // e.g. 400
	// LinksWithinMesh is the trunk width between same-generation blocks.
	LinksWithinMesh int
	// LinksToTransit is the trunk width from each block (old or new) to
	// each transit block.
	LinksToTransit int
	ServerPorts    int
}

// TransitMesh builds the bridged fabric: full mesh among old blocks at
// OldRate, full mesh among new blocks at NewRate, and every block
// trunked to every transit block (old side at OldRate, new side at
// NewRate). Cross-generation traffic takes old → transit → new without
// any new-generation switch burning a low-rate port.
func TransitMesh(cfg TransitMeshConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	oldDeg := (cfg.OldBlocks-1)*cfg.LinksWithinMesh + cfg.TransitBlocks*cfg.LinksToTransit
	newDeg := (cfg.NewBlocks-1)*cfg.LinksWithinMesh + cfg.TransitBlocks*cfg.LinksToTransit
	transitDeg := (cfg.OldBlocks + cfg.NewBlocks) * cfg.LinksToTransit
	links := (cfg.OldBlocks*oldDeg + cfg.NewBlocks*newDeg + cfg.TransitBlocks*transitDeg) / 2
	// Node IDs: old blocks, then new blocks, then transit blocks.
	t := newFabric(fmt.Sprintf("transit-mesh-%do-%dn-%dt", cfg.OldBlocks, cfg.NewBlocks, cfg.TransitBlocks),
		links, func(f *fabric) {
			f.switches(cfg.OldBlocks, oldDeg, Node{Role: RoleToR, Radix: oldDeg + cfg.ServerPorts,
				Rate: cfg.OldRate, ServerPorts: cfg.ServerPorts, Pod: 0}, "old-")
			f.switches(cfg.NewBlocks, newDeg, Node{Role: RoleToR, Radix: newDeg + cfg.ServerPorts,
				Rate: cfg.NewRate, ServerPorts: cfg.ServerPorts, Pod: 1}, "new-")
			// A transit block presents old-rate ports to the old side and
			// new-rate ports to the new side; its node Rate is the new rate
			// so Link() clamps each trunk to the slower endpoint correctly.
			f.switches(cfg.TransitBlocks, transitDeg, Node{Role: RoleIntermediate, Radix: transitDeg,
				Rate: cfg.NewRate, Pod: 2}, "transit-")
		})
	// mesh fully meshes blocks lo … hi−1.
	mesh := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				for w := 0; w < cfg.LinksWithinMesh; w++ {
					t.Link(i, j)
				}
			}
		}
	}
	blocks := cfg.OldBlocks + cfg.NewBlocks
	mesh(0, cfg.OldBlocks)
	mesh(cfg.OldBlocks, blocks)
	for b := 0; b < blocks; b++ {
		for tr := 0; tr < cfg.TransitBlocks; tr++ {
			for w := 0; w < cfg.LinksToTransit; w++ {
				t.Link(b, blocks+tr)
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}

// CrossGenPortCost compares the two ways of attaching cross-generation
// capacity, per §3.4: direct mixed links burn one new-generation port
// per OldRate of bandwidth (the link clamps to the slow rate), while the
// transit path delivers NewRate per new-side port and pays for the
// bridging on the (cheaper, often repurposed) transit hardware. It
// returns Gbps of cross-generation capacity per new-block port for both
// designs.
func CrossGenPortCost(oldRate, newRate units.Gbps) (directPerPort, transitPerPort units.Gbps) {
	return oldRate, newRate
}
