package supply

import (
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
)

func newFloor(t *testing.T) *floorplan.Floorplan {
	t.Helper()
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func demandsAt(lengths []struct{ r1, s1, r2, s2 int }) []cabling.Demand {
	var ds []cabling.Demand
	for i, l := range lengths {
		ds = append(ds, cabling.Demand{ID: i,
			From: floorplan.RackLoc{Row: l.r1, Slot: l.s1},
			To:   floorplan.RackLoc{Row: l.r2, Slot: l.s2}, Rate: 100})
	}
	return ds
}

// basePlan is the unconstrained plan AssessVendorLoss and FungibilityTax
// compare against.
func basePlan(t *testing.T, f *floorplan.Floorplan, cat *cabling.Catalog, ds []cabling.Demand) *cabling.Plan {
	t.Helper()
	p, err := cabling.PlanCables(f, cat, ds, cabling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssessVendorLossNoAlternative(t *testing.T) {
	f := newFloor(t)
	cat := cabling.DefaultCatalog() // single vendor "acme"
	ds := demandsAt([]struct{ r1, s1, r2, s2 int }{{0, 0, 0, 1}, {0, 0, 3, 9}})
	imp, err := AssessVendorLoss(f, cat, basePlan(t, f, cat, ds), ds, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(imp.Infeasible) != 2 {
		t.Errorf("infeasible = %v, want both demands", imp.Infeasible)
	}
}

func TestAssessVendorLossWithSecondSource(t *testing.T) {
	f := newFloor(t)
	cat := cabling.SecondSourceCatalog()
	ds := demandsAt([]struct{ r1, s1, r2, s2 int }{{0, 0, 0, 1}, {0, 0, 3, 9}, {1, 2, 1, 3}})
	imp, err := AssessVendorLoss(f, cat, basePlan(t, f, cat, ds), ds, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(imp.Infeasible) != 0 {
		t.Errorf("infeasible = %v with a second source available", imp.Infeasible)
	}
	if imp.MediaChanges != 3 {
		t.Errorf("media changes = %d, want 3 (all demands move to vendor bolt)", imp.MediaChanges)
	}
	if imp.CostDelta <= 0 {
		t.Errorf("cost delta = %v, second-best parts should cost more", imp.CostDelta)
	}
}

func TestAssessVendorLossOfUnusedVendor(t *testing.T) {
	f := newFloor(t)
	cat := cabling.SecondSourceCatalog()
	ds := demandsAt([]struct{ r1, s1, r2, s2 int }{{0, 0, 0, 2}})
	// Losing "bolt" (never the cheapest) changes nothing.
	imp, err := AssessVendorLoss(f, cat, basePlan(t, f, cat, ds), ds, "bolt")
	if err != nil {
		t.Fatal(err)
	}
	if imp.MediaChanges != 0 || imp.CostDelta != 0 || len(imp.Infeasible) != 0 {
		t.Errorf("losing unused vendor had impact: %+v", imp)
	}
}

func TestSecondBestCatalogClampsReach(t *testing.T) {
	cat := cabling.SecondSourceCatalog()
	env := SecondBestCatalog(cat)
	// One entry per (class, rate): default catalog has 11 specs.
	if len(env.Media) != 11 {
		t.Fatalf("envelope entries = %d, want 11", len(env.Media))
	}
	for _, s := range env.Media {
		if s.Vendor != "any" {
			t.Errorf("envelope spec %s kept vendor %q", s.Name, s.Vendor)
		}
	}
	// The 100G DAC envelope reach is bolt's 3 × 0.85 = 2.55 m.
	var dac *cabling.Spec
	for i := range env.Media {
		if env.Media[i].Class == cabling.MediaDAC && env.Media[i].Rate == 100 {
			dac = &env.Media[i]
		}
	}
	if dac == nil {
		t.Fatal("no 100G DAC in envelope")
	}
	if got, want := float64(dac.MaxLength), 3*0.85; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("envelope DAC reach = %v, want %v", dac.MaxLength, want)
	}
}

func TestFungibilityTax(t *testing.T) {
	f := newFloor(t)
	cat := cabling.SecondSourceCatalog()
	ds := demandsAt([]struct{ r1, s1, r2, s2 int }{
		{0, 0, 0, 1}, {0, 2, 1, 5}, {2, 0, 3, 9},
	})
	baseline, envelope, infeasible, err := FungibilityTax(f, cat, basePlan(t, f, cat, ds), ds)
	if err != nil {
		t.Fatal(err)
	}
	if infeasible != 0 {
		t.Errorf("infeasible = %d", infeasible)
	}
	if envelope < baseline {
		t.Errorf("envelope cost %v below baseline %v — second-best cannot be cheaper", envelope, baseline)
	}
}
