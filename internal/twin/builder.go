package twin

import (
	"slices"
	"strconv"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/physerr"
	"physdep/internal/placement"
	"physdep/internal/topology"
)

// FromNetwork builds a twin from a placed, cable-planned network: the
// hall, racks (with RU and plenum attributes from the floorplan),
// switches, cables with their media geometry, bundles, and tray segments
// with routed-through relations. This is the handoff the paper wants —
// design artifacts flowing into a model that physics rules can interrogate
// before anything is built.
func FromNetwork(p *placement.Placement, plan *cabling.Plan) (*Model, error) {
	f := p.Floor
	nSw, nTray, nCable := p.Topo.N, f.NumTraySegments(), len(plan.Cables)
	// Racks: only slots in use, in first-use order.
	inUse := make([]bool, f.NumRacks())
	var slots []int
	for _, slot := range p.SlotOfRack {
		if slot < 0 || slot >= len(inUse) {
			return nil, physerr.OutOfRange("twin: rack slot %d outside the %d-slot hall", slot, len(inUse))
		}
		if !inUse[slot] {
			inUse[slot] = true
			slots = append(slots, slot)
		}
	}
	// Count everything first, so the handle store, the relation slice
	// and the ID arena are each allocated once.
	nRel := len(slots) + nSw + 2*nCable
	var multi []int // bundles of two or more cables; singletons add no entity
	for bi, b := range plan.Bundles {
		if len(b.CableIdx) == 1 {
			nRel += len(plan.Cables[b.CableIdx[0]].Route.Segments)
			continue
		}
		multi = append(multi, bi)
		nRel += len(b.CableIdx) + len(b.Route.Segments)
	}
	nEnt := 2 + len(slots) + nSw + nTray + nCable + len(multi)

	// Every generated ID lives in one arena string, in Add order.
	buf := make([]byte, 0, 12*nEnt)
	ends := make([]int, 0, nEnt)
	gen := func(prefix string, n int) {
		buf = strconv.AppendInt(append(buf, prefix...), int64(n), 10)
		ends = append(ends, len(buf))
	}
	for _, slot := range slots {
		gen("rack-", slot)
	}
	for sw := 0; sw < nSw; sw++ {
		gen("switch-", sw)
	}
	for seg := 0; seg < nTray; seg++ {
		gen("tray-", seg)
	}
	for i := 0; i < nCable; i++ {
		gen("cable-", i)
	}
	for _, bi := range multi {
		gen("bundle-", bi)
	}
	arena, start := string(buf), 0
	nextID := func() string {
		id := arena[start:ends[0]]
		start, ends = ends[0], ends[1:]
		return id
	}

	m := &Model{}
	m.init(nEnt, nRel)
	// One backing array for every entity, and one for every attribute
	// window: neither grows past its count, so the pointers Add keeps and
	// the windows cut from it stay valid.
	width := func(k int32) int { return len(layouts[k].names) }
	slab := make([]Entity, 0, nEnt)
	floats := make([]float64, width(kHall)+width(kDoor)+len(slots)*width(kRack)+
		nSw*width(kSwitch)+nTray*width(kTray)+nCable*width(kCable)+len(multi)*width(kBundle))
	// add appends an entity of vocabulary kind k whose attributes are the
	// first len(attrs) slots of k's layout. Every generated ID is unique,
	// so no entity needs the duplicate check.
	add := func(id string, k int32, attrs ...float64) int32 {
		n := width(k)
		slab = append(slab, Entity{ID: id, Kind: vocabularyKinds[k], lay: &layouts[k],
			vals: floats[:n:n], set: 1<<len(attrs) - 1})
		copy(floats, attrs)
		floats = floats[n:]
		return m.add(&slab[len(slab)-1], k)
	}
	hall := add("hall", kHall, float64(f.Rows), float64(f.RacksPerRow))
	door := add("door-main", kDoor, float64(floorplan.DoorWidth))
	rackAt := make([]int32, len(inUse)) // slot → rack handle; 0 (the hall's) if unused
	for _, slot := range slots {
		rack := add(nextID(), kRack, float64(floorplan.RackUnits),
			float64(floorplan.PlenumCapacity), float64(floorplan.RackWidth))
		rackAt[slot] = rack
		m.relate(hall, vContains, rack)
	}
	// Switches, trays and cables each take a run of consecutive handles.
	sw0 := int32(len(m.ents))
	for sw := 0; sw < nSw; sw++ {
		n := p.Topo.Nodes[sw]
		ru := float64(placement.ToRRU)
		if n.Role != topology.RoleToR {
			ru = placement.SwitchRU
		}
		h := add(nextID(), kSwitch, float64(n.Radix), float64(n.Rate), ru, 50+4*float64(n.Radix))
		slot := f.RackIndex(p.LocOfSwitch(sw))
		if slot < 0 || slot >= len(rackAt) || rackAt[slot] == hall {
			return nil, physerr.OutOfRange("twin: relation from unknown entity %q", "rack-"+strconv.Itoa(slot))
		}
		m.relate(rackAt[slot], vContains, h)
	}
	tray0 := int32(len(m.ents))
	for seg := 0; seg < nTray; seg++ {
		add(nextID(), kTray, float64(floorplan.TrayCapacity))
	}
	cable0 := int32(len(m.ents))
	for _, c := range plan.Cables {
		attrs := [...]float64{float64(c.Route.Length), float64(c.Spec.Diameter),
			float64(c.Spec.BendRadius), float64(c.Spec.Rate), float64(c.Spec.LossBudget)}
		n := sCableLossBudget // an electrical cable carries no loss budget
		if c.Spec.PanelCompatible() {
			n++
		}
		h := add(nextID(), kCable, attrs[:n]...)
		e := p.Topo.Edges[c.Demand.ID]
		for _, sw := range [2]int{e.U, e.V} {
			to, err := member(sw0, nSw, sw, "switch-")
			if err != nil {
				return nil, err
			}
			m.relate(h, vConnects, to)
		}
	}
	routeThrough := func(from int32, segs []int) error {
		for _, seg := range segs {
			to, err := member(tray0, nTray, seg, "tray-")
			if err != nil {
				return err
			}
			m.relate(from, vRoutesThrough, to)
		}
		return nil
	}
	bundle0 := int32(len(m.ents))
	for _, b := range plan.Bundles {
		if len(b.CableIdx) == 1 {
			// Singletons route through trays directly.
			ci := b.CableIdx[0]
			if err := routeThrough(cable0+int32(ci), plan.Cables[ci].Route.Segments); err != nil {
				return nil, err
			}
			continue
		}
		h := add(nextID(), kBundle, float64(b.CrossSection))
		for _, ci := range b.CableIdx {
			to, err := member(cable0, nCable, ci, "cable-")
			if err != nil {
				return nil, err
			}
			m.relate(h, vContains, to)
		}
		if err := routeThrough(h, b.Route.Segments); err != nil {
			return nil, err
		}
	}

	// The ID order, with no comparisons: the families in byte order of
	// their IDs, each numbered family's members in the order of their
	// numbers' decimal strings.
	m.order = make([]int32, 0, nEnt)
	run := func(base int32, n int) {
		decimalOrder(n, func(i int) { m.order = append(m.order, base+int32(i)) })
	}
	decimalOrder(len(plan.Bundles), func(bi int) {
		if k, ok := slices.BinarySearch(multi, bi); ok { // multi ascends, as its handles do
			m.order = append(m.order, bundle0+int32(k))
		}
	})
	run(cable0, nCable)
	m.order = append(m.order, door, hall)
	decimalOrder(len(inUse), func(slot int) {
		if inUse[slot] {
			m.order = append(m.order, rackAt[slot])
		}
	})
	run(sw0, nSw)
	run(tray0, nTray)
	return m, nil
}

// decimalOrder visits 0, …, n-1 in the order of their decimal strings
// ("0", "1", "10", "100", …, "11", …, "2"): a preorder walk of the
// decimal trie, descending to x·10 while it is below n and otherwise
// moving to the next sibling, climbing past every 9 and the end.
func decimalOrder(n int, visit func(int)) {
	if n <= 0 {
		return
	}
	visit(0)
	for x, i := 1, 1; i < n; i++ {
		visit(x)
		if x*10 < n {
			x *= 10
			continue
		}
		for x%10 == 9 || x+1 >= n {
			x /= 10
		}
		x++
	}
}

// member returns the handle of entry i of a run of n entities added
// from handle base on, or Relate's error for an entity never added.
func member(base int32, n, i int, prefix string) (int32, error) {
	if i < 0 || i >= n {
		return -1, physerr.OutOfRange("twin: relation to unknown entity %q", prefix+strconv.Itoa(i))
	}
	return base + int32(i), nil
}
