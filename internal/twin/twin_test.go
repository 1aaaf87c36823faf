package twin

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/placement"
	"physdep/internal/topology"
)

func mustAdd(t *testing.T, m *Model, e *Entity) {
	t.Helper()
	if err := m.Add(e); err != nil {
		t.Fatal(err)
	}
}

// newEntity makes an entity and sets attrs on it.
func newEntity(id string, k Kind, attrs map[string]float64) *Entity {
	e := &Entity{ID: id, Kind: k}
	for name, v := range attrs {
		e.SetAttr(name, v)
	}
	return e
}

func mustRelate(t *testing.T, m *Model, from string, v Verb, to string) {
	t.Helper()
	if err := m.Relate(from, v, to); err != nil {
		t.Fatal(err)
	}
}

func TestModelBasics(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("r1", KindRack, map[string]float64{"ru_capacity": 42}))
	mustAdd(t, m, &Entity{ID: "s1", Kind: KindSwitch})
	if err := m.Add(&Entity{ID: "r1", Kind: KindRack}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := m.Add(&Entity{Kind: KindRack}); err == nil {
		t.Error("empty ID accepted")
	}
	mustRelate(t, m, "r1", VerbContains, "s1")
	if err := m.Relate("r1", VerbContains, "ghost"); err == nil {
		t.Error("relation to unknown entity accepted")
	}
	if got := m.Related("r1", VerbContains); len(got) != 1 || got[0] != "s1" {
		t.Errorf("Related = %v", got)
	}
	if got := m.RelatedTo("s1", VerbContains); len(got) != 1 || got[0] != "r1" {
		t.Errorf("RelatedTo = %v", got)
	}
	if err := m.Remove("s1"); err != nil {
		t.Fatal(err)
	}
	if got := m.Related("r1", VerbContains); len(got) != 0 {
		t.Errorf("relations not cleaned on remove: %v", got)
	}
	if err := m.Remove("s1"); err == nil {
		t.Error("double remove accepted")
	}
}

func TestSchemaRequiredAttrs(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, &Entity{ID: "c1", Kind: KindCable}) // missing everything
	vs := DefaultSchema().Check(m)
	if len(vs) != 4 {
		t.Errorf("violations = %d, want 4 missing attrs: %v", len(vs), vs)
	}
}

func TestSchemaUnknownKindIsOutOfEnvelope(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, &Entity{ID: "x1", Kind: Kind("quantum-interposer")})
	vs := DefaultSchema().Check(m)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "capability envelope") {
		t.Errorf("violations = %v, want one unknown-kind error", vs)
	}
}

func TestSchemaVerbCheck(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("s1", KindSwitch,
		map[string]float64{"radix": 32, "rate_gbps": 100, "ru": 2, "power_w": 100}))
	mustAdd(t, m, newEntity("s2", KindSwitch,
		map[string]float64{"radix": 32, "rate_gbps": 100, "ru": 2, "power_w": 100}))
	mustRelate(t, m, "s1", VerbContains, "s2") // switch contains switch: nonsense
	vs := DefaultSchema().Check(m)
	if len(vs) != 1 || vs[0].Rule != "schema:verb" {
		t.Errorf("violations = %v, want one verb error", vs)
	}
}

// TestSchemaVerbTableIsSetBySchema: the verb rule's table spans only
// the kinds the allowed pairs name. A custom kind in a custom schema's
// pair is judged like a vocabulary kind, and a model holding thousands
// of other kinds adds no square-sized table to a check.
func TestSchemaVerbTableIsSetBySchema(t *testing.T) {
	const chip, interposer, bonds = Kind("chip"), Kind("interposer"), Verb("bonds")
	s := &Schema{Required: map[Kind][]string{chip: nil, interposer: nil},
		AllowedVerbs: map[Verb][][2]Kind{bonds: {{chip, interposer}}}}
	m := NewModel()
	mustAdd(t, m, &Entity{ID: "c", Kind: chip})
	mustAdd(t, m, &Entity{ID: "i", Kind: interposer})
	for i := 0; i < 2000; i++ {
		k := Kind(fmt.Sprintf("kind-%d", i))
		s.Required[k] = nil
		mustAdd(t, m, &Entity{ID: string(k), Kind: k})
	}
	mustRelate(t, m, "c", bonds, "i")
	mustRelate(t, m, "i", bonds, "c")
	mustRelate(t, m, "kind-0", bonds, "kind-1")
	mustRelate(t, m, "c", VerbContains, "i")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vs := s.Check(m)
	runtime.ReadMemStats(&after)
	var flagged []string
	for _, v := range vs {
		if v.Rule != "schema:verb" {
			t.Fatalf("unexpected finding %v", v)
		}
		flagged = append(flagged, v.EntityID)
	}
	if want := []string{"i", "kind-0", "c"}; !reflect.DeepEqual(flagged, want) {
		t.Errorf("verb findings from %v, want %v", flagged, want)
	}
	// A table over every kind code would be 5·2011² bools, about 20 MB.
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("Check allocated %d bytes for a model of 2,002 custom kinds", b)
	}
}

func TestTrayCapacityRule(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("t1", KindTray, map[string]float64{"capacity_mm2": 100}))
	mustAdd(t, m, newEntity("b1", KindBundle, map[string]float64{"cross_section_mm2": 150}))
	mustRelate(t, m, "b1", VerbRoutesThrough, "t1")
	vs := TrayCapacityRule{}.Check(m)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want 1", vs)
	}
	// Shrink the bundle: violation clears.
	m.Entity("b1").SetAttr("cross_section_mm2", 90)
	if vs := (TrayCapacityRule{}).Check(m); len(vs) != 0 {
		t.Errorf("violation persists after fix: %v", vs)
	}
}

func TestRackSpaceRule(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("r1", KindRack,
		map[string]float64{"ru_capacity": 4, "plenum_mm2": 1000, "width_m": 0.6}))
	for _, id := range []string{"s1", "s2", "s3"} {
		mustAdd(t, m, newEntity(id, KindSwitch,
			map[string]float64{"radix": 32, "rate_gbps": 100, "ru": 2, "power_w": 100}))
		mustRelate(t, m, "r1", VerbContains, id)
	}
	vs := RackSpaceRule{}.Check(m)
	if len(vs) != 1 {
		t.Errorf("6 RU in 4 RU rack: violations = %v", vs)
	}
}

func TestBendRadiusRule(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("c1", KindCable,
		map[string]float64{"length_m": 3, "diameter_mm": 11, "bend_radius_mm": 110, "rate_gbps": 400}))
	mustAdd(t, m, newEntity("t1", KindTray,
		map[string]float64{"capacity_mm2": 1e6, "min_bend_mm": 80}))
	mustRelate(t, m, "c1", VerbRoutesThrough, "t1")
	vs := BendRadiusRule{}.Check(m)
	if len(vs) != 1 {
		t.Errorf("thick 400G DAC in tight tray: violations = %v", vs)
	}
}

func TestDoorWidthRule(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("d1", KindDoor, map[string]float64{"width_m": 1.1}))
	mustAdd(t, m, newEntity("r1", KindRack,
		map[string]float64{"ru_capacity": 42, "plenum_mm2": 1000, "width_m": 0.6, "unit_width_m": 1.2}))
	vs := DoorWidthRule{}.Check(m)
	if len(vs) != 1 {
		t.Errorf("double-wide unit through 1.1 m door: violations = %v", vs)
	}
}

func TestPowerRule(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("f1", KindPowerFeed, map[string]float64{"capacity_w": 100}))
	mustAdd(t, m, newEntity("r1", KindRack,
		map[string]float64{"ru_capacity": 42, "plenum_mm2": 1000, "width_m": 0.6}))
	mustAdd(t, m, newEntity("s1", KindSwitch,
		map[string]float64{"radix": 32, "rate_gbps": 100, "ru": 2, "power_w": 150}))
	mustRelate(t, m, "f1", VerbFeeds, "r1")
	mustRelate(t, m, "r1", VerbContains, "s1")
	vs := PowerRule{}.Check(m)
	if len(vs) != 1 {
		t.Errorf("150 W on 100 W feed: violations = %v", vs)
	}
}

func TestLossBudgetRule(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("p1", KindPanel, map[string]float64{"ports": 64, "loss_db": 1.0}))
	mustAdd(t, m, newEntity("p2", KindPanel, map[string]float64{"ports": 64, "loss_db": 1.0}))
	// Fiber with 2.0 dB budget through two 1.0 dB panels + 0.6 connector
	// loss: 2.6 > 2.0 → violation.
	mustAdd(t, m, newEntity("c1", KindCable, map[string]float64{
		"length_m": 50, "diameter_mm": 2, "bend_radius_mm": 15, "rate_gbps": 100,
		"loss_budget_db": 2.0}))
	mustRelate(t, m, "c1", VerbRoutesThrough, "p1")
	mustRelate(t, m, "c1", VerbRoutesThrough, "p2")
	if vs := (LossBudgetRule{}).Check(m); len(vs) != 1 {
		t.Errorf("over-budget fiber: violations = %v", vs)
	}
	// Electrical cable through a panel: also flagged.
	mustAdd(t, m, newEntity("c2", KindCable, map[string]float64{
		"length_m": 2, "diameter_mm": 6.7, "bend_radius_mm": 60, "rate_gbps": 100}))
	mustRelate(t, m, "c2", VerbRoutesThrough, "p1")
	vs := LossBudgetRule{}.Check(m)
	found := false
	for _, v := range vs {
		if v.EntityID == "c2" {
			found = true
		}
	}
	if !found {
		t.Errorf("electrical cable through panel not flagged: %v", vs)
	}
}

func TestRemediationEscalation(t *testing.T) {
	base := RemediationCost(100, StageDesign)
	live := RemediationCost(100, StageLive)
	if base != 100 || live != 3000 {
		t.Errorf("remediation costs: design %v live %v, want 100 and 3000", base, live)
	}
	prev := 0.0
	for _, s := range []Stage{StageDesign, StagePlanning, StageInstall, StageLive} {
		mult := RemediationMultiplier(s)
		if mult <= prev {
			t.Errorf("multiplier not increasing at %v", s)
		}
		prev = mult
	}
}

func TestDryRunAttributesViolationsToStep(t *testing.T) {
	m := NewModel()
	mustAdd(t, m, newEntity("t1", KindTray, map[string]float64{"capacity_mm2": 100}))
	ops := []Op{
		{Kind: OpAdd, Entity: newEntity("b1", KindBundle,
			map[string]float64{"cross_section_mm2": 60})},
		{Kind: OpRelate, From: "b1", Verb: VerbRoutesThrough, To: "t1"}, // 60/100: fine
		{Kind: OpAdd, Entity: newEntity("b2", KindBundle,
			map[string]float64{"cross_section_mm2": 70})},
		{Kind: OpRelate, From: "b2", Verb: VerbRoutesThrough, To: "t1"}, // 130/100: overload
	}
	res, err := DryRun(m, DefaultSchema(), DefaultRules(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstBadStep != 3 {
		t.Errorf("first bad step = %d, want 3", res.FirstBadStep)
	}
	if len(res.ViolationsAfterStep[3]) != 1 {
		t.Errorf("step 3 violations = %v", res.ViolationsAfterStep[3])
	}
}

func TestDryRunMalformedPlan(t *testing.T) {
	m := NewModel()
	ops := []Op{{Kind: OpRelate, From: "nope", Verb: VerbContains, To: "nada"}}
	if _, err := DryRun(m, DefaultSchema(), DefaultRules(), ops); err == nil {
		t.Error("malformed plan accepted")
	}
}

func TestSavings(t *testing.T) {
	vs := []Violation{{Rule: "x"}, {Rule: "y"}}
	rep := Savings(vs, 500, StageInstall)
	if rep.TwinCost != 1000 || rep.NoTwinCost != 10000 {
		t.Errorf("savings = %+v", rep)
	}
	if rep.SavingsRatio != 10 {
		t.Errorf("ratio = %v, want 10", rep.SavingsRatio)
	}
}

func TestFromNetworkBuildsCleanModel(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.Greedy(ft, f, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromNetwork(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed build must pass schema and physics clean.
	vs := CheckAll(m, DefaultSchema(), DefaultRules())
	if len(vs) != 0 {
		t.Errorf("violations on a valid build: %v", vs)
	}
	if got := len(m.EntitiesOfKind(KindSwitch)); got != ft.N {
		t.Errorf("switch entities = %d, want %d", got, ft.N)
	}
	if got := len(m.EntitiesOfKind(KindCable)); got != len(plan.Cables) {
		t.Errorf("cable entities = %d, want %d", got, len(plan.Cables))
	}
}

func TestFromNetworkDetectsPlantedViolation(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.Greedy(ft, f, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromNetwork(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Plant: shrink one tray to nearly nothing.
	trays := m.EntitiesOfKind(KindTray)
	var loaded *Entity
	for _, tr := range trays {
		if len(m.RelatedTo(tr.ID, VerbRoutesThrough)) > 0 {
			loaded = tr
			break
		}
	}
	if loaded == nil {
		t.Fatal("no loaded tray found")
	}
	loaded.SetAttr("capacity_mm2", 0.001)
	vs := CheckAll(m, DefaultSchema(), DefaultRules())
	found := false
	for _, v := range vs {
		if v.Rule == "tray-capacity" && v.EntityID == loaded.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("planted tray violation not caught: %v", vs)
	}
}
