package cabling

import (
	"errors"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/physerr"
	"physdep/internal/units"
)

// FuzzPlanCables feeds arbitrary demands through PlanCables against the
// default hall and catalog. Bad locations and rates or losses the
// catalog cannot serve must come back as classified errors; a nil error
// must come with a plan covering every demand.
func FuzzPlanCables(f *testing.F) {
	f.Add(0, 0, 0, 1, 3, float64(100), float64(0))
	f.Add(1, 0, 2, 2, 7, float64(400), float64(1.5))
	// Regression seeds: out-of-hall locations (the old RouteBetween panic
	// path), an unknown rate, and a loss no medium's budget covers.
	f.Add(2, -1, 0, 0, 0, float64(100), float64(0))
	f.Add(3, 0, 0, 99, 99, float64(100), float64(0))
	f.Add(4, 0, 0, 1, 1, float64(123), float64(0))
	f.Add(5, 0, 0, 1, 1, float64(100), float64(50))
	f.Fuzz(func(t *testing.T, id, r1, s1, r2, s2 int, rate, loss float64) {
		fp, err := floorplan.NewFloorplan(floorplan.DefaultHall(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		demands := []Demand{{
			ID:        id,
			From:      floorplan.RackLoc{Row: r1, Slot: s1},
			To:        floorplan.RackLoc{Row: r2, Slot: s2},
			Rate:      units.Gbps(rate),
			ExtraLoss: units.DB(loss),
		}}
		plan, err := PlanCables(fp, DefaultCatalog(), demands, Options{})
		if err != nil {
			ok := errors.Is(err, physerr.ErrOutOfRange) || errors.Is(err, physerr.ErrInfeasibleMedia)
			if !ok {
				t.Fatalf("PlanCables error kind = %v, want ErrOutOfRange or ErrInfeasibleMedia", err)
			}
			return
		}
		if len(plan.Cables) != len(demands) {
			t.Fatalf("plan has %d cables for %d demands", len(plan.Cables), len(demands))
		}
	})
}
