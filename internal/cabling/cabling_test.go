package cabling

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"physdep/internal/floorplan"
	"physdep/internal/units"
)

func TestCrossSectionAWSRatio(t *testing.T) {
	// The paper's §3.1 figure: 100G DAC 6.7 mm OD → 400G DAC 11 mm OD is
	// a 2.7× cross-section increase.
	d100 := Spec{Diameter: 6.7}
	d400 := Spec{Diameter: 11.0}
	ratio := float64(d400.CrossSection()) / float64(d100.CrossSection())
	if math.Abs(ratio-2.7) > 0.01 {
		t.Errorf("400G/100G DAC cross-section ratio = %.3f, want ~2.70", ratio)
	}
}

func TestSpecCost(t *testing.T) {
	s := Spec{CostFixed: 100, CostPerMeter: 10}
	if got := s.Cost(5); got != 150 {
		t.Errorf("Cost(5m) = %v, want $150", got)
	}
}

func TestSelectPrefersCheapestFeasible(t *testing.T) {
	cat := DefaultCatalog()
	// 2 m at 100G: DAC feasible and cheapest.
	s, err := cat.Select(100, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != MediaDAC {
		t.Errorf("2m/100G selected %v, want DAC", s.Name)
	}
	// 5 m at 100G: DAC out of reach, AEC wins.
	s, err = cat.Select(100, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != MediaAEC {
		t.Errorf("5m/100G selected %v, want AEC", s.Name)
	}
	// 50 m: AOC.
	s, err = cat.Select(100, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != MediaAOC {
		t.Errorf("50m/100G selected %v, want AOC", s.Name)
	}
	// 300 m: only structured fiber reaches.
	s, err = cat.Select(100, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != MediaFiber {
		t.Errorf("300m/100G selected %v, want fiber", s.Name)
	}
}

func TestSelectPanelForcesFiber(t *testing.T) {
	cat := DefaultCatalog()
	// Short link, but through a patch panel (0.5 dB): must be fiber even
	// though DAC would reach.
	s, err := cat.Select(100, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != MediaFiber {
		t.Errorf("panel path selected %v, want fiber", s.Name)
	}
}

func TestSelectLossBudgetExceeded(t *testing.T) {
	cat := DefaultCatalog()
	// 100G-FR budget is 4.0 dB. End connectors cost 0.6; four OCS passes
	// at 1.0 dB = 4.0 → total 4.6 > 4.0: infeasible.
	_, err := cat.Select(100, 10, 4.0)
	if !errors.Is(err, ErrNoMedia) {
		t.Errorf("over-budget path: err = %v, want ErrNoMedia", err)
	}
	// Three passes (3.0 dB) leaves 3.6 total: feasible.
	if _, err := cat.Select(100, 10, 3.0); err != nil {
		t.Errorf("3-pass path should be feasible: %v", err)
	}
}

func TestSelectUnknownRate(t *testing.T) {
	cat := DefaultCatalog()
	if _, err := cat.Select(999, 1, 0); !errors.Is(err, ErrNoMedia) {
		t.Errorf("unknown rate: err = %v, want ErrNoMedia", err)
	}
}

func TestPathLoss(t *testing.T) {
	got := PathLoss(1000, 1.0)
	want := units.DB(0.6 + 0.4 + 1.0)
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("PathLoss = %v, want %v", got, want)
	}
}

func TestSecondSourceCatalog(t *testing.T) {
	cat := SecondSourceCatalog()
	if len(cat.Media) != 2*len(DefaultCatalog().Media) {
		t.Fatalf("second-source catalog has %d entries", len(cat.Media))
	}
	// Second-best 100G DAC reach: 3 * 0.85 = 2.55 m. A 2.8 m link is
	// DAC-feasible from vendor acme but not from bolt.
	onlyBolt := func(s Spec) bool { return s.Vendor == "bolt" }
	s, err := cat.SelectFiltered(100, 2.8, 0, onlyBolt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class == MediaDAC {
		t.Errorf("bolt DAC selected at 2.8 m beyond its 2.55 m reach")
	}
}

func newTestFloor(t *testing.T) *floorplan.Floorplan {
	t.Helper()
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPlanCablesBasic(t *testing.T) {
	f := newTestFloor(t)
	cat := DefaultCatalog()
	var demands []Demand
	// 6 cables rack(0,0) -> rack(0,3): bundleable group.
	for i := 0; i < 6; i++ {
		demands = append(demands, Demand{ID: i,
			From: floorplan.RackLoc{Row: 0, Slot: 0}, To: floorplan.RackLoc{Row: 0, Slot: 3}, Rate: 100})
	}
	// 2 cables rack(1,1) -> rack(2,5): below MinBundleSize.
	for i := 6; i < 8; i++ {
		demands = append(demands, Demand{ID: i,
			From: floorplan.RackLoc{Row: 1, Slot: 1}, To: floorplan.RackLoc{Row: 2, Slot: 5}, Rate: 100})
	}
	p, err := PlanCables(f, cat, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Summarize()
	if s.Cables != 8 {
		t.Errorf("cables = %d, want 8", s.Cables)
	}
	if s.Bundles != 1 || s.Singletons != 2 {
		t.Errorf("bundles = %d singletons = %d, want 1 and 2", s.Bundles, s.Singletons)
	}
	if got := p.BundleabilityScore(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("bundleability = %v, want 0.75 (6 of 8)", got)
	}
}

func TestPlanCablesEveryCableInExactlyOneBundle(t *testing.T) {
	f := newTestFloor(t)
	cat := DefaultCatalog()
	var demands []Demand
	for i := 0; i < 150; i++ {
		demands = append(demands, Demand{ID: i,
			From: floorplan.RackLoc{Row: i % 4, Slot: i % 10},
			To:   floorplan.RackLoc{Row: (i + 1) % 4, Slot: (i * 3) % 10}, Rate: 100})
	}
	// 130 cables on one rack pair: two full bundles and a 2-cable
	// remainder pulled as singletons.
	for i := 150; i < 280; i++ {
		demands = append(demands, Demand{ID: i,
			From: floorplan.RackLoc{Row: 3, Slot: 9}, To: floorplan.RackLoc{Row: 0, Slot: 9}, Rate: 100})
	}
	p, err := PlanCables(f, cat, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int, len(p.Cables))
	full := 0
	for _, b := range p.Bundles {
		if len(b.CableIdx) == MaxBundleCables {
			full++
		}
		if len(b.CableIdx) > MaxBundleCables {
			t.Errorf("bundle exceeds MaxBundleCables: %d", len(b.CableIdx))
		}
		for _, i := range b.CableIdx {
			covered[i]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Errorf("cable %d covered %d times", i, c)
		}
	}
	if full != 2 {
		t.Errorf("%d bundles of MaxBundleCables, want 2 from the 130-cable group", full)
	}
}

func TestPlanCablesInfeasibleDemand(t *testing.T) {
	f := newTestFloor(t)
	cat := &Catalog{Media: []Spec{{Name: "tiny", Class: MediaDAC, Rate: 100, MaxLength: 1}}}
	demands := []Demand{{ID: 0,
		From: floorplan.RackLoc{Row: 0, Slot: 0}, To: floorplan.RackLoc{Row: 3, Slot: 9}, Rate: 100}}
	if _, err := PlanCables(f, cat, demands, Options{}); !errors.Is(err, ErrNoMedia) {
		t.Errorf("err = %v, want ErrNoMedia", err)
	}
}

func TestPlanTrayAccounting(t *testing.T) {
	f := newTestFloor(t)
	cat := DefaultCatalog()
	demands := []Demand{
		{ID: 0, From: floorplan.RackLoc{Row: 0, Slot: 0}, To: floorplan.RackLoc{Row: 0, Slot: 2}, Rate: 100},
	}
	p, err := PlanCables(f, cat, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Singleton: cross-section equals the cable's own (no packing factor).
	want := p.Cables[0].Spec.CrossSection()
	for _, seg := range p.Cables[0].Route.Segments {
		if got := p.Tray.Used(seg); math.Abs(float64(got-want)) > 1e-9 {
			t.Errorf("segment %d used = %v, want %v", seg, got, want)
		}
	}
}

func TestBundlePackingInflation(t *testing.T) {
	f := newTestFloor(t)
	cat := DefaultCatalog()
	var demands []Demand
	for i := 0; i < 4; i++ {
		demands = append(demands, Demand{ID: i,
			From: floorplan.RackLoc{Row: 0, Slot: 0}, To: floorplan.RackLoc{Row: 0, Slot: 1}, Rate: 100})
	}
	p, err := PlanCables(f, cat, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bundles) != 1 {
		t.Fatalf("bundles = %d, want 1", len(p.Bundles))
	}
	var sum units.SquareMillimeters
	for _, c := range p.Cables {
		sum += c.Spec.CrossSection()
	}
	want := units.SquareMillimeters(float64(sum) * PackingFactor)
	if got := p.Bundles[0].CrossSection; math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("bundle cross-section = %v, want %v", got, want)
	}
}

// Property: Select never returns media whose reach or loss budget the
// request violates, and always returns the cheapest among feasible specs.
func TestQuickSelectSound(t *testing.T) {
	cat := DefaultCatalog()
	check := func(lenCenti uint16, passes uint8) bool {
		length := units.Meters(float64(lenCenti%60000) / 100) // 0–600 m
		extra := units.DB(float64(passes%5)) * 0.5
		s, err := cat.Select(100, length, extra)
		if err != nil {
			// Verify nothing was actually feasible.
			for _, m := range cat.Media {
				if m.Rate != 100 || length > m.MaxLength {
					continue
				}
				if extra > 0 && !m.PanelCompatible() {
					continue
				}
				if m.PanelCompatible() && PathLoss(length, extra) > m.LossBudget {
					continue
				}
				return false // feasible spec existed but Select errored
			}
			return true
		}
		if length > s.MaxLength {
			return false
		}
		if extra > 0 && !s.PanelCompatible() {
			return false
		}
		if s.PanelCompatible() && PathLoss(length, extra) > s.LossBudget {
			return false
		}
		// Cheapest check.
		for _, m := range cat.Media {
			if m.Rate != 100 || length > m.MaxLength {
				continue
			}
			if extra > 0 && !m.PanelCompatible() {
				continue
			}
			if m.PanelCompatible() && PathLoss(length, extra) > m.LossBudget {
				continue
			}
			if m.Cost(length) < s.Cost(length) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
