package twin

import (
	"fmt"
	"math"
	"sort"
)

// refModel is the reference the indexed Model is tested against: the
// twin without an index, where every query scans the raw entity map or
// relation slice and sorts what it found. Its mutators and rules are the
// pre-index implementations, kept verbatim apart from the receiver and
// the entity type.
type refModel struct {
	entities  map[string]*refEntity
	relations []Relation
}

// refEntity is an entity as the reference holds it: attributes and tags
// in plain maps, the shape Entity had before its attributes moved into
// per-kind columns. Its JSON is that shape's, which Entity's MarshalJSON
// must reproduce byte for byte.
type refEntity struct {
	ID    string
	Kind  Kind
	Attrs map[string]float64
	Tags  map[string]string
}

func (e *refEntity) Attr(name string) (float64, bool) {
	v, ok := e.Attrs[name]
	return v, ok
}

// refModelJSON is modelJSON over the reference's entities.
type refModelJSON struct {
	Entities  []*refEntity `json:"entities"`
	Relations []Relation   `json:"relations"`
}

// newRefModel deep-copies m's entities and relations, so the two models
// share no state and each op must be applied to both.
func newRefModel(m *Model) *refModel {
	r := &refModel{entities: map[string]*refEntity{}, relations: m.Relations()}
	for id, h := range m.idMap() {
		r.entities[id] = toRef(m.ents[h])
	}
	return r
}

// toRef copies e into the reference's plain maps.
func toRef(e *Entity) *refEntity {
	c := &refEntity{ID: e.ID, Kind: e.Kind, Attrs: e.attrMap(), Tags: map[string]string{}}
	for k, v := range e.Tags {
		c.Tags[k] = v
	}
	return c
}

// cloneEntity copies e into a fresh Entity that shares no state with it.
func cloneEntity(e *Entity) *Entity {
	c := &Entity{ID: e.ID, Kind: e.Kind}
	for k, v := range e.attrMap() {
		c.SetAttr(k, v)
	}
	if e.Tags != nil {
		c.Tags = map[string]string{}
		for k, v := range e.Tags {
			c.Tags[k] = v
		}
	}
	return c
}

func (m *refModel) Add(e *refEntity) error {
	if e.ID == "" {
		return fmt.Errorf("empty ID")
	}
	if _, dup := m.entities[e.ID]; dup {
		return fmt.Errorf("duplicate entity %q", e.ID)
	}
	m.entities[e.ID] = e
	return nil
}

func (m *refModel) Entity(id string) *refEntity { return m.entities[id] }

func (m *refModel) Remove(id string) error {
	if _, ok := m.entities[id]; !ok {
		return fmt.Errorf("remove of unknown entity %q", id)
	}
	delete(m.entities, id)
	kept := m.relations[:0]
	for _, r := range m.relations {
		if r.From != id && r.To != id {
			kept = append(kept, r)
		}
	}
	m.relations = kept
	return nil
}

func (m *refModel) Relate(from string, verb Verb, to string) error {
	if m.entities[from] == nil {
		return fmt.Errorf("relation from unknown entity %q", from)
	}
	if m.entities[to] == nil {
		return fmt.Errorf("relation to unknown entity %q", to)
	}
	m.relations = append(m.relations, Relation{From: from, Verb: verb, To: to})
	return nil
}

func (m *refModel) Unrelate(from string, verb Verb, to string) {
	for i, r := range m.relations {
		if r.From == from && r.Verb == verb && r.To == to {
			m.relations = append(m.relations[:i], m.relations[i+1:]...)
			return
		}
	}
}

func (m *refModel) Related(from string, verb Verb) []string {
	var out []string
	for _, r := range m.relations {
		if r.From == from && r.Verb == verb {
			out = append(out, r.To)
		}
	}
	sort.Strings(out)
	return out
}

func (m *refModel) RelatedTo(to string, verb Verb) []string {
	var out []string
	for _, r := range m.relations {
		if r.To == to && r.Verb == verb {
			out = append(out, r.From)
		}
	}
	sort.Strings(out)
	return out
}

func (m *refModel) EntitiesOfKind(k Kind) []*refEntity {
	var out []*refEntity
	for _, e := range m.entities {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *refModel) allEntitiesSorted() []*refEntity {
	var out []*refEntity
	for _, e := range m.entities {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// apply is applyOp over the reference; an added entity is copied.
func (m *refModel) apply(op Op) error {
	switch op.Kind {
	case OpAdd:
		return m.Add(toRef(op.Entity))
	case OpRemove:
		return m.Remove(op.ID)
	case OpRelate:
		return m.Relate(op.From, op.Verb, op.To)
	case OpUnrelate:
		m.Unrelate(op.From, op.Verb, op.To)
		return nil
	case OpSetAttr:
		e := m.Entity(op.ID)
		if e == nil {
			return fmt.Errorf("set attr on unknown entity %q", op.ID)
		}
		e.Attrs[op.Attr] = op.Value
		return nil
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// refCheckAll is CheckAll with DefaultRules over the reference.
func refCheckAll(m *refModel, s *Schema) []Violation {
	vs := refSchemaCheck(m, s)
	for _, rule := range []func(*refModel) []Violation{
		refTrayCapacity, refRackSpace, refPlenum, refBendRadius, refDoorWidth, refPower, refLossBudget,
	} {
		vs = append(vs, rule(m)...)
	}
	return vs
}

// freshViolations is DryRun's per-step attribution: the findings in
// after that were not already present before.
func freshViolations(before, after []Violation) []Violation {
	seen := map[string]bool{}
	for _, v := range before {
		seen[v.String()] = true
	}
	var fresh []Violation
	for _, v := range after {
		if !seen[v.String()] {
			fresh = append(fresh, v)
			seen[v.String()] = true
		}
	}
	return fresh
}

func refSchemaCheck(m *refModel, s *Schema) []Violation {
	var vs []Violation
	for _, kind := range []Kind{KindHall, KindRack, KindSwitch, KindCable, KindBundle,
		KindTray, KindPanel, KindPowerFeed, KindDoor} {
		for _, e := range m.EntitiesOfKind(kind) {
			for _, attr := range s.Required[e.Kind] {
				if _, ok := e.Attr(attr); !ok {
					vs = append(vs, Violation{Rule: "schema:required-attr", EntityID: e.ID,
						Severity: SevError,
						Detail:   fmt.Sprintf("%s missing required attribute %q", e.Kind, attr)})
				}
			}
		}
	}
	for _, e := range m.allEntitiesSorted() {
		if _, known := s.Required[e.Kind]; !known {
			vs = append(vs, Violation{Rule: "schema:unknown-kind", EntityID: e.ID,
				Severity: SevError,
				Detail:   fmt.Sprintf("kind %q is outside the capability envelope", e.Kind)})
		}
	}
	for _, r := range m.relations {
		from, to := m.Entity(r.From), m.Entity(r.To)
		if from == nil || to == nil {
			continue
		}
		allowed := false
		for _, pair := range s.AllowedVerbs[r.Verb] {
			if pair[0] == from.Kind && pair[1] == to.Kind {
				allowed = true
				break
			}
		}
		if !allowed {
			vs = append(vs, Violation{Rule: "schema:verb", EntityID: r.From,
				Severity: SevError,
				Detail: fmt.Sprintf("%s %s %s (%s→%s) is not representable",
					r.From, r.Verb, r.To, from.Kind, to.Kind)})
		}
	}
	return vs
}

func refTrayCapacity(m *refModel) []Violation {
	var vs []Violation
	for _, tray := range m.EntitiesOfKind(KindTray) {
		cap, _ := tray.Attr("capacity_mm2")
		used := 0.0
		for _, id := range m.RelatedTo(tray.ID, VerbRoutesThrough) {
			occ := m.Entity(id)
			if occ == nil {
				continue
			}
			switch occ.Kind {
			case KindBundle:
				cs, _ := occ.Attr("cross_section_mm2")
				used += cs
			case KindCable:
				d, _ := occ.Attr("diameter_mm")
				used += math.Pi * d * d / 4
			}
		}
		if used > cap {
			vs = append(vs, Violation{Rule: "tray-capacity", EntityID: tray.ID, Severity: SevError,
				Detail: fmt.Sprintf("%.0f mm² routed through %.0f mm² tray", used, cap)})
		}
	}
	return vs
}

func refRackSpace(m *refModel) []Violation {
	var vs []Violation
	for _, rack := range m.EntitiesOfKind(KindRack) {
		cap, _ := rack.Attr("ru_capacity")
		used := 0.0
		for _, id := range m.Related(rack.ID, VerbContains) {
			if sw := m.Entity(id); sw != nil && sw.Kind == KindSwitch {
				ru, _ := sw.Attr("ru")
				used += ru
			}
		}
		if used > cap {
			vs = append(vs, Violation{Rule: "rack-space", EntityID: rack.ID, Severity: SevError,
				Detail: fmt.Sprintf("%.0f RU installed in %.0f RU rack", used, cap)})
		}
	}
	return vs
}

func refPlenum(m *refModel) []Violation {
	var vs []Violation
	rackOfSwitch := map[string]string{}
	for _, rack := range m.EntitiesOfKind(KindRack) {
		for _, id := range m.Related(rack.ID, VerbContains) {
			rackOfSwitch[id] = rack.ID
		}
	}
	used := map[string]float64{}
	for _, cable := range m.EntitiesOfKind(KindCable) {
		d, _ := cable.Attr("diameter_mm")
		area := math.Pi * d * d / 4
		for _, sw := range m.Related(cable.ID, VerbConnects) {
			if rid, ok := rackOfSwitch[sw]; ok {
				used[rid] += area
			}
		}
	}
	for _, rack := range m.EntitiesOfKind(KindRack) {
		cap, _ := rack.Attr("plenum_mm2")
		if used[rack.ID] > cap {
			vs = append(vs, Violation{Rule: "rack-plenum", EntityID: rack.ID, Severity: SevError,
				Detail: fmt.Sprintf("%.0f mm² of cable in %.0f mm² plenum", used[rack.ID], cap)})
		}
	}
	return vs
}

func refBendRadius(m *refModel) []Violation {
	var vs []Violation
	for _, cable := range m.EntitiesOfKind(KindCable) {
		need, _ := cable.Attr("bend_radius_mm")
		for _, tid := range m.Related(cable.ID, VerbRoutesThrough) {
			tray := m.Entity(tid)
			if tray == nil || tray.Kind != KindTray {
				continue
			}
			if avail, ok := tray.Attr("min_bend_mm"); ok && need > avail {
				vs = append(vs, Violation{Rule: "bend-radius", EntityID: cable.ID, Severity: SevError,
					Detail: fmt.Sprintf("needs %.0f mm bend radius; tray %s allows %.0f mm",
						need, tid, avail)})
			}
		}
	}
	return vs
}

func refDoorWidth(m *refModel) []Violation {
	var vs []Violation
	doors := m.EntitiesOfKind(KindDoor)
	if len(doors) == 0 {
		return nil
	}
	minDoor := math.Inf(1)
	var tightest string
	for _, d := range doors {
		w, _ := d.Attr("width_m")
		if w < minDoor {
			minDoor, tightest = w, d.ID
		}
	}
	for _, rack := range m.EntitiesOfKind(KindRack) {
		w, _ := rack.Attr("width_m")
		if uw, ok := rack.Attr("unit_width_m"); ok && uw > w {
			w = uw
		}
		if w > minDoor {
			vs = append(vs, Violation{Rule: "door-width", EntityID: rack.ID, Severity: SevError,
				Detail: fmt.Sprintf("unit %.2f m wide; door %s is %.2f m", w, tightest, minDoor)})
		}
	}
	return vs
}

func refPower(m *refModel) []Violation {
	var vs []Violation
	for _, feed := range m.EntitiesOfKind(KindPowerFeed) {
		cap, _ := feed.Attr("capacity_w")
		used := 0.0
		for _, rid := range m.Related(feed.ID, VerbFeeds) {
			for _, sid := range m.Related(rid, VerbContains) {
				if sw := m.Entity(sid); sw != nil && sw.Kind == KindSwitch {
					p, _ := sw.Attr("power_w")
					used += p
				}
			}
		}
		if used > cap {
			vs = append(vs, Violation{Rule: "power", EntityID: feed.ID, Severity: SevError,
				Detail: fmt.Sprintf("%.0f W drawn on %.0f W feed", used, cap)})
		}
	}
	return vs
}

func refLossBudget(m *refModel) []Violation {
	var vs []Violation
	const connectorLoss = 0.3
	for _, cable := range m.EntitiesOfKind(KindCable) {
		var panelLoss float64
		panels := 0
		for _, pid := range m.Related(cable.ID, VerbRoutesThrough) {
			if p := m.Entity(pid); p != nil && p.Kind == KindPanel {
				l, _ := p.Attr("loss_db")
				panelLoss += l
				panels++
			}
		}
		budget, optical := cable.Attr("loss_budget_db")
		if !optical {
			if panels > 0 {
				vs = append(vs, Violation{Rule: "loss-budget", EntityID: cable.ID, Severity: SevError,
					Detail: fmt.Sprintf("electrical cable routed through %d panel(s)", panels)})
			}
			continue
		}
		length, _ := cable.Attr("length_m")
		total := 2*connectorLoss + 0.0004*length + panelLoss
		if total > budget {
			vs = append(vs, Violation{Rule: "loss-budget", EntityID: cable.ID, Severity: SevError,
				Detail: fmt.Sprintf("%.2f dB path loss exceeds %.2f dB budget", total, budget)})
		}
	}
	return vs
}
