// Package placement assigns the switches of a logical topology to
// physical rack slots on a floorplan — the optimization Mudigonda et al.
// called "taming the flying cable monster". Every ToR anchors its own
// (server) rack; aggregation/spine/core switches are packed several to a
// network rack. The quality of a placement is the cable plan it induces:
// total length, media mix, and tray load all follow from it.
package placement

import (
	"fmt"
	"sort"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/physerr"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// Rack packing: how many non-ToR switches share one network rack, and
// the rack units a switch occupies — a ToR takes 2U (its servers are the
// rack's business), any other switch 4U.
const (
	NetSwitchesPerRack = 8
	ToRRU              = 2
	SwitchRU           = 4
)

// Config is Greedy's option set. It has no fields: rack packing is the
// constants above.
type Config struct{}

// Placement binds a topology to a floorplan: each switch belongs to a
// logical rack, and each logical rack sits in a floor slot.
type Placement struct {
	Topo  *topology.Topology
	Floor *floorplan.Floorplan

	RackOfSwitch []int // logical rack index per switch node
	SlotOfRack   []int // floor slot (rack index on the floor) per logical rack

	slotUsed []bool // floor slots occupied by some logical rack
}

// NumRacks returns the number of logical racks in use.
func (p *Placement) NumRacks() int { return len(p.SlotOfRack) }

// Clone returns an independent copy of the placement sharing the (read-
// only) topology but owning its slot assignment and floor occupancy, so
// parallel annealing chains can mutate clones without touching p.
func (p *Placement) Clone() *Placement {
	return &Placement{
		Topo:         p.Topo,
		Floor:        p.Floor.Clone(),
		RackOfSwitch: append([]int(nil), p.RackOfSwitch...),
		SlotOfRack:   append([]int(nil), p.SlotOfRack...),
		slotUsed:     append([]bool(nil), p.slotUsed...),
	}
}

// adopt installs src's slot assignment and floor occupancy into p. The
// two placements must descend from the same Greedy result (same topology
// and rack partition).
func (p *Placement) adopt(src *Placement) {
	copy(p.SlotOfRack, src.SlotOfRack)
	copy(p.slotUsed, src.slotUsed)
	p.Floor.CopyOccupancyFrom(src.Floor)
}

// LocOfSwitch returns the floor location of a switch.
func (p *Placement) LocOfSwitch(sw int) floorplan.RackLoc {
	return p.Floor.LocOf(p.SlotOfRack[p.RackOfSwitch[sw]])
}

// EdgeLength returns the pulled length of topology edge id's route under
// this placement. Locations come from the placement's own (validated)
// bookkeeping, and this sits inside the annealer's objective loop, so it
// takes the route's length alone and builds no segment list.
func (p *Placement) EdgeLength(id int) units.Meters {
	e := p.Topo.Edges[id]
	return p.Floor.MustRouteLength(p.LocOfSwitch(e.U), p.LocOfSwitch(e.V))
}

// CableLength sums route lengths over all live edges — the annealer's
// objective.
func (p *Placement) CableLength() units.Meters {
	var total units.Meters
	for _, e := range p.Topo.Edges {
		if e.U == -1 {
			continue
		}
		total += p.EdgeLength(e.ID)
	}
	return total
}

// Demands converts the placed topology into cabling demands. extraLoss,
// if non-nil, reports the mid-span optical loss each edge must tolerate
// (patch-panel/OCS passes); nil means direct point-to-point everywhere.
func (p *Placement) Demands(extraLoss func(edgeID int) units.DB) []cabling.Demand {
	var ds []cabling.Demand
	for _, e := range p.Topo.Edges {
		if e.U == -1 {
			continue
		}
		var loss units.DB
		if extraLoss != nil {
			loss = extraLoss(e.ID)
		}
		ds = append(ds, cabling.Demand{
			ID:        e.ID,
			From:      p.LocOfSwitch(e.U),
			To:        p.LocOfSwitch(e.V),
			Rate:      units.Gbps(e.Cap),
			ExtraLoss: loss,
		})
	}
	return ds
}

// Greedy produces the baseline placement: network racks (filled with
// non-ToR switches in role/pod order) claim the most central floor slots,
// then ToR racks fill the remaining slots row-major in pod order, keeping
// each pod physically contiguous.
func Greedy(t *topology.Topology, f *floorplan.Floorplan, _ Config) (*Placement, error) {
	tors := t.ToRs()
	var nonToR []int
	for _, n := range t.Nodes {
		if n.Role != topology.RoleToR {
			nonToR = append(nonToR, n.ID)
		}
	}
	// Sort non-ToR switches so rack-mates are topologically close: by
	// role, then pod, then ID.
	sort.Slice(nonToR, func(i, j int) bool {
		a, b := t.Nodes[nonToR[i]], t.Nodes[nonToR[j]]
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		if a.Pod != b.Pod {
			return a.Pod < b.Pod
		}
		return a.ID < b.ID
	})
	nNetRacks := (len(nonToR) + NetSwitchesPerRack - 1) / NetSwitchesPerRack
	nRacks := nNetRacks + len(tors)
	if nRacks > f.NumRacks() {
		return nil, physerr.Capacity("placement: need %d racks (%d network + %d ToR) but hall has %d slots",
			nRacks, nNetRacks, len(tors), f.NumRacks())
	}
	p := &Placement{
		Topo: t, Floor: f,
		RackOfSwitch: make([]int, t.N),
		SlotOfRack:   make([]int, nRacks),
		slotUsed:     make([]bool, f.NumRacks()),
	}
	// Network racks get the most central slots.
	central := slotsByCentrality(f)
	for r := 0; r < nNetRacks; r++ {
		p.SlotOfRack[r] = central[r]
		p.slotUsed[central[r]] = true
	}
	for i, sw := range nonToR {
		p.RackOfSwitch[sw] = i / NetSwitchesPerRack
	}
	// ToR racks: pods in order, row-major through the remaining slots.
	sort.Slice(tors, func(i, j int) bool {
		a, b := t.Nodes[tors[i]], t.Nodes[tors[j]]
		if a.Pod != b.Pod {
			return a.Pod < b.Pod
		}
		return a.ID < b.ID
	})
	next := 0
	for i, sw := range tors {
		for p.slotUsed[next] {
			next++
		}
		r := nNetRacks + i
		p.RackOfSwitch[sw] = r
		p.SlotOfRack[r] = next
		p.slotUsed[next] = true
	}
	// Account rack units, so a rack without room fails loudly.
	ru := make([]int, nRacks)
	for sw, r := range p.RackOfSwitch {
		if t.Nodes[sw].Role == topology.RoleToR {
			ru[r] += ToRRU
		} else {
			ru[r] += SwitchRU
		}
	}
	for r, n := range ru {
		if err := f.ReserveRU(p.SlotOfRack[r], n); err != nil {
			return nil, fmt.Errorf("placement: %w", err)
		}
	}
	return p, nil
}

// slotsByCentrality orders floor slots by Manhattan distance from the
// hall's center, closest first, with deterministic tie-breaking.
func slotsByCentrality(f *floorplan.Floorplan) []int {
	type slotDist struct {
		slot int
		d    float64
	}
	cr, cs := float64(f.Rows-1)/2, float64(f.RacksPerRow-1)/2
	all := make([]slotDist, f.NumRacks())
	for i := range all {
		l := f.LocOf(i)
		dr, ds := float64(l.Row)-cr, float64(l.Slot)-cs
		if dr < 0 {
			dr = -dr
		}
		if ds < 0 {
			ds = -ds
		}
		// Rows are farther apart than slots; weight by pitch.
		all[i] = slotDist{i, dr*float64(floorplan.RowPitch) + ds*float64(floorplan.RackPitch)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].slot < all[j].slot
	})
	out := make([]int, len(all))
	for i, sd := range all {
		out[i] = sd.slot
	}
	return out
}
