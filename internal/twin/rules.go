package twin

import (
	"fmt"
	"math"
)

// Rule is one physical-constraint check over a model. Rules are pure:
// they read the model and report violations.
type Rule interface {
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

func (TrayCapacityRule) Check(m *Model) []Violation {
	var vs []Violation
	x := m.index()
	// Each bundle's and cable's cross-section, read once rather than
	// once per tray it crosses; other kinds occupy nothing.
	area := make([]float64, len(m.ents))
	for _, b := range x.ofKind(kBundle) {
		area[b], _ = m.ents[b].at(sBundleCrossSection)
	}
	for _, c := range x.ofKind(kCable) {
		d, _ := m.ents[c].at(sCableDiameter)
		area[c] = math.Pi * d * d / 4
	}
	for _, t := range x.ofKind(kTray) {
		tray := m.ents[t]
		cap, _ := tray.at(sTrayCapacity)
		used := 0.0
		for _, o := range x.in.list(t, vRoutesThrough) {
			if k := m.kind[o]; k == kBundle || k == kCable {
				used += area[o]
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

func (RackSpaceRule) Check(m *Model) []Violation {
	var vs []Violation
	x := m.index()
	for _, r := range x.ofKind(kRack) {
		rack := m.ents[r]
		cap, _ := rack.at(sRackRU)
		used := 0.0
		for _, s := range x.out.list(r, vContains) {
			if m.kind[s] == kSwitch {
				ru, _ := m.ents[s].at(sSwitchRU)
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

func (PlenumRule) Check(m *Model) []Violation {
	var vs []Violation
	x := m.index()
	// Cable → switch → rack attribution, by handle; -1 is no rack.
	rackOf := make([]int32, len(m.ents))
	for i := range rackOf {
		rackOf[i] = -1
	}
	for _, r := range x.ofKind(kRack) {
		for _, s := range x.out.list(r, vContains) {
			rackOf[s] = r
		}
	}
	used := make([]float64, len(m.ents))
	for _, c := range x.ofKind(kCable) {
		d, _ := m.ents[c].at(sCableDiameter)
		area := math.Pi * d * d / 4
		for _, s := range x.out.list(c, vConnects) {
			if r := rackOf[s]; r >= 0 {
				used[r] += area
			}
		}
	}
	for _, r := range x.ofKind(kRack) {
		rack := m.ents[r]
		cap, _ := rack.at(sRackPlenum)
		if used[r] > cap {
			vs = append(vs, Violation{Rule: "rack-plenum", EntityID: rack.ID, Severity: SevError,
				Detail: fmt.Sprintf("%.0f mm² of cable in %.0f mm² plenum", used[r], cap)})
		}
	}
	return vs
}

// BendRadiusRule: a cable's minimum bend radius must fit the tightest
// bend on its route. Cables carry "bend_radius_mm"; trays may carry
// "min_bend_mm" (the tightest corner they impose); absent attribute
// means no constraint from that tray.
type BendRadiusRule struct{}

func (BendRadiusRule) Check(m *Model) []Violation {
	var vs []Violation
	x := m.index()
	// Each tray's tightest bend, read once rather than once per cable
	// through it; +Inf, which no radius exceeds, where it sets none.
	avail := make([]float64, len(m.ents))
	for _, t := range x.ofKind(kTray) {
		if b, ok := m.ents[t].at(sTrayMinBend); ok {
			avail[t] = b
		} else {
			avail[t] = math.Inf(1)
		}
	}
	for _, c := range x.ofKind(kCable) {
		cable := m.ents[c]
		need, _ := cable.at(sCableBend)
		for _, t := range x.out.list(c, vRoutesThrough) {
			if m.kind[t] == kTray && need > avail[t] {
				vs = append(vs, Violation{Rule: "bend-radius", EntityID: cable.ID, Severity: SevError,
					Detail: fmt.Sprintf("needs %.0f mm bend radius; tray %s allows %.0f mm",
						need, m.ents[t].ID, avail[t])})
			}
		}
	}
	return vs
}

// DoorWidthRule: any rack (or conjoined unit, via the "unit_width_m"
// attribute) must pass through every door of its hall.
type DoorWidthRule struct{}

func (DoorWidthRule) Check(m *Model) []Violation {
	var vs []Violation
	x := m.index()
	doors := x.ofKind(kDoor)
	if len(doors) == 0 {
		return nil
	}
	minDoor := math.Inf(1)
	var tightest string
	for _, h := range doors {
		d := m.ents[h]
		w, _ := d.at(sDoorWidth)
		if w < minDoor {
			minDoor, tightest = w, d.ID
		}
	}
	for _, r := range x.ofKind(kRack) {
		rack := m.ents[r]
		w, _ := rack.at(sRackWidth)
		if uw, ok := rack.at(sRackUnitWidth); ok && uw > w {
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

func (PowerRule) Check(m *Model) []Violation {
	var vs []Violation
	x := m.index()
	for _, f := range x.ofKind(kPowerFeed) {
		feed := m.ents[f]
		cap, _ := feed.at(sFeedCapacity)
		used := 0.0
		for _, r := range x.out.list(f, vFeeds) {
			for _, s := range x.out.list(r, vContains) {
				if m.kind[s] == kSwitch {
					p, _ := m.ents[s].at(sSwitchPower)
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

func (LossBudgetRule) Check(m *Model) []Violation {
	var vs []Violation
	const connectorLoss = 0.3
	x := m.index()
	for _, c := range x.ofKind(kCable) {
		cable := m.ents[c]
		var panelLoss float64
		panels := 0
		for _, p := range x.out.list(c, vRoutesThrough) {
			if m.kind[p] == kPanel {
				l, _ := m.ents[p].at(sPanelLoss)
				panelLoss += l
				panels++
			}
		}
		budget, optical := cable.at(sCableLossBudget)
		if !optical {
			if panels > 0 {
				vs = append(vs, Violation{Rule: "loss-budget", EntityID: cable.ID, Severity: SevError,
					Detail: fmt.Sprintf("electrical cable routed through %d panel(s)", panels)})
			}
			continue
		}
		length, _ := cable.at(sCableLength)
		total := 2*connectorLoss + 0.0004*length + panelLoss
		if total > budget {
			vs = append(vs, Violation{Rule: "loss-budget", EntityID: cable.ID, Severity: SevError,
				Detail: fmt.Sprintf("%.2f dB path loss exceeds %.2f dB budget", total, budget)})
		}
	}
	return vs
}
