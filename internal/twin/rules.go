package twin

import (
	"fmt"
	"math"
)

// Rule is one physical-constraint check over a model. Rules are pure:
// they read the model and report violations.
type Rule interface {
	Name() string
	Check(m *Model) []Violation
}

// DefaultRules returns the physics checks physdep models: the hidden
// constraints §3.1 catalogs.
func DefaultRules() []Rule {
	return []Rule{
		TrayCapacityRule{},
		RackSpaceRule{},
		PlenumRule{},
		BendRadiusRule{},
		DoorWidthRule{},
		PowerRule{},
		LossBudgetRule{},
	}
}

// CheckAll runs the schema and every rule, concatenating findings.
func CheckAll(m *Model, s *Schema, rules []Rule) []Violation {
	vs := s.Check(m)
	for _, r := range rules {
		vs = append(vs, r.Check(m)...)
	}
	return vs
}

// TrayCapacityRule: the cross-sections routed through a tray must not
// exceed its capacity.
type TrayCapacityRule struct{}

func (TrayCapacityRule) Name() string { return "tray-capacity" }

func (TrayCapacityRule) Check(m *Model) []Violation {
	var vs []Violation
	for _, tray := range m.ofKind(KindTray) {
		cap, _ := tray.Attr("capacity_mm2")
		used := 0.0
		for _, id := range m.in(tray.ID, VerbRoutesThrough) {
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

// RackSpaceRule: switches in a rack must fit its rack units.
type RackSpaceRule struct{}

func (RackSpaceRule) Name() string { return "rack-space" }

func (RackSpaceRule) Check(m *Model) []Violation {
	var vs []Violation
	for _, rack := range m.ofKind(KindRack) {
		cap, _ := rack.Attr("ru_capacity")
		used := 0.0
		for _, id := range m.out(rack.ID, VerbContains) {
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

// PlenumRule: cable cross-section terminating at a rack must fit its
// plenum (the §3.1 "256 cables in a rack" problem).
type PlenumRule struct{}

func (PlenumRule) Name() string { return "rack-plenum" }

func (PlenumRule) Check(m *Model) []Violation {
	var vs []Violation
	// Cable → switch → rack attribution.
	rackOfSwitch := map[string]string{}
	for _, rack := range m.ofKind(KindRack) {
		for _, id := range m.out(rack.ID, VerbContains) {
			rackOfSwitch[id] = rack.ID
		}
	}
	used := map[string]float64{}
	for _, cable := range m.ofKind(KindCable) {
		d, _ := cable.Attr("diameter_mm")
		area := math.Pi * d * d / 4
		for _, sw := range m.out(cable.ID, VerbConnects) {
			if rid, ok := rackOfSwitch[sw]; ok {
				used[rid] += area
			}
		}
	}
	for _, rack := range m.ofKind(KindRack) {
		cap, _ := rack.Attr("plenum_mm2")
		if used[rack.ID] > cap {
			vs = append(vs, Violation{Rule: "rack-plenum", EntityID: rack.ID, Severity: SevError,
				Detail: fmt.Sprintf("%.0f mm² of cable in %.0f mm² plenum", used[rack.ID], cap)})
		}
	}
	return vs
}

// BendRadiusRule: a cable's minimum bend radius must fit the tightest
// bend on its route. Cables carry "bend_radius_mm"; trays may carry
// "min_bend_mm" (the tightest corner they impose); absent attribute
// means no constraint from that tray.
type BendRadiusRule struct{}

func (BendRadiusRule) Name() string { return "bend-radius" }

func (BendRadiusRule) Check(m *Model) []Violation {
	var vs []Violation
	for _, cable := range m.ofKind(KindCable) {
		need, _ := cable.Attr("bend_radius_mm")
		for _, tid := range m.out(cable.ID, VerbRoutesThrough) {
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

// DoorWidthRule: any rack (or conjoined unit, via the "unit_width_m"
// attribute) must pass through every door of its hall.
type DoorWidthRule struct{}

func (DoorWidthRule) Name() string { return "door-width" }

func (DoorWidthRule) Check(m *Model) []Violation {
	var vs []Violation
	doors := m.ofKind(KindDoor)
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
	for _, rack := range m.ofKind(KindRack) {
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

// PowerRule: the switches in racks fed by a power feed must not exceed
// its capacity.
type PowerRule struct{}

func (PowerRule) Name() string { return "power" }

func (PowerRule) Check(m *Model) []Violation {
	var vs []Violation
	for _, feed := range m.ofKind(KindPowerFeed) {
		cap, _ := feed.Attr("capacity_w")
		used := 0.0
		for _, rid := range m.out(feed.ID, VerbFeeds) {
			for _, sid := range m.out(rid, VerbContains) {
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

// LossBudgetRule: a fiber cable routed through panels must keep its
// total insertion loss within its "loss_budget_db" attribute (absent
// attribute = electrical cable; those must route through no panel at
// all, which the rule also flags).
type LossBudgetRule struct{}

func (LossBudgetRule) Name() string { return "loss-budget" }

func (LossBudgetRule) Check(m *Model) []Violation {
	var vs []Violation
	const connectorLoss = 0.3
	for _, cable := range m.ofKind(KindCable) {
		var panelLoss float64
		panels := 0
		for _, pid := range m.out(cable.ID, VerbRoutesThrough) {
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
