package repair

import (
	"context"
	"math"
	"testing"
)

func TestSwitchFleetComposition(t *testing.T) {
	sys, err := SwitchFleet(4, 32, 8, 2000, 500, 60, 120, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Per switch: 1 switch component + 4 linecards.
	if got, want := len(sys.Components), 4*5; got != want {
		t.Fatalf("components = %d, want %d", got, want)
	}
	if sys.TotalPorts != 128 {
		t.Errorf("total ports = %d, want 128", sys.TotalPorts)
	}
	cards, switches := 0, 0
	for _, c := range sys.Components {
		switch c.Kind {
		case CompLinecard:
			cards++
			if c.DrainPorts != 8 {
				t.Errorf("linecard drains %d ports, want 8", c.DrainPorts)
			}
		case CompSwitch:
			switches++
			if c.DrainPorts != 32 {
				t.Errorf("switch drains %d ports, want 32", c.DrainPorts)
			}
		}
	}
	if cards != 16 || switches != 4 {
		t.Errorf("cards = %d switches = %d, want 16 and 4", cards, switches)
	}
}

func TestSwitchFleetValidation(t *testing.T) {
	if _, err := SwitchFleet(0, 32, 8, 1, 1, 1, 1, 1); err == nil {
		t.Error("zero switches accepted")
	}
	if _, err := SwitchFleet(1, 30, 8, 1, 1, 1, 1, 1); err == nil {
		t.Error("non-divisible radix accepted")
	}
}

func TestSimulateNoFailuresAtZeroRate(t *testing.T) {
	sys := &System{TotalPorts: 100, Components: []Component{
		{ID: 0, FITs: 0, RepairMinutes: 60, DrainPorts: 10},
	}}
	res, err := SimulateCtx(context.Background(), sys, 8760, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.Availability != 1 {
		t.Errorf("zero-rate system failed: %+v", res)
	}
}

func TestSimulateHighRateReducesAvailability(t *testing.T) {
	mk := func(fits float64) *System {
		return &System{TotalPorts: 64, Components: []Component{
			{ID: 0, FITs: fits, RepairMinutes: 240, TravelMinutes: 20, DrainPorts: 64},
		}}
	}
	lo, err := SimulateCtx(context.Background(), mk(1e5), 8760, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := SimulateCtx(context.Background(), mk(1e7), 8760, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Availability >= lo.Availability {
		t.Errorf("100× failure rate did not reduce availability: %v vs %v",
			hi.Availability, lo.Availability)
	}
	if hi.Failures <= lo.Failures {
		t.Errorf("failure counts: hi %d <= lo %d", hi.Failures, lo.Failures)
	}
}

func TestSimulateExpectedFailureCount(t *testing.T) {
	// 1e6 FITs = 1e-3 failures/hour; over 10k hours ≈ 10 failures
	// (repairs are fast so the renewal rate stays close).
	sys := &System{TotalPorts: 1, Components: []Component{
		{ID: 0, FITs: 1e6, RepairMinutes: 6, DrainPorts: 1},
	}}
	res, err := SimulateManyCtx(context.Background(), sys, 10000, 1, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures < 5 || res.Failures > 15 {
		t.Errorf("mean failures = %d, want ≈ 10", res.Failures)
	}
}

func TestSimulateAvailabilityMatchesAnalytic(t *testing.T) {
	// Single component, rate λ, repair μ-minutes: steady-state
	// unavailability ≈ λ·MTTR (for λ·MTTR ≪ 1). λ = 1e-3/h, MTTR = 2 h
	// → ≈ 2e-3.
	sys := &System{TotalPorts: 10, Components: []Component{
		{ID: 0, FITs: 1e6, RepairMinutes: 120, DrainPorts: 10},
	}}
	res, err := SimulateManyCtx(context.Background(), sys, 50000, 1, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	unavail := 1 - res.Availability
	if math.Abs(unavail-2e-3) > 8e-4 {
		t.Errorf("unavailability = %v, want ≈ 0.002", unavail)
	}
}

func TestUnitOfRepairRadixEffect(t *testing.T) {
	// E6's core claim: at equal total ports and equal per-port failure
	// rates, bigger units of repair (whole big switch drained per
	// failure) hurt availability more. Compare 32 switches of radix 16
	// vs 4 switches of radix 128, switch-level failures only, rate per
	// switch scaled with its size so port-failure exposure matches.
	small, err := SwitchFleet(32, 16, 16, 0, 16*3000, 240, 240, 15)
	if err != nil {
		t.Fatal(err)
	}
	big, err := SwitchFleet(4, 128, 128, 0, 128*3000, 240, 240, 15)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SimulateManyCtx(context.Background(), small, 8760, 4, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := SimulateManyCtx(context.Background(), big, 8760, 4, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Expected port-down-hours are equal in the limit; but concurrent
	// correlated loss differs. Check the drained-ports-per-failure side:
	// big switches drain 8× the ports per event.
	if rs.Failures == 0 || rb.Failures == 0 {
		t.Fatal("no failures simulated")
	}
	perEventSmall := rs.PortDownHours / float64(rs.Failures)
	perEventBig := rb.PortDownHours / float64(rb.Failures)
	if perEventBig <= perEventSmall*4 {
		t.Errorf("per-event drained port-hours: big %v, small %v — want ≥ 4× gap",
			perEventBig, perEventSmall)
	}
}

func TestSimulateTechQueueing(t *testing.T) {
	// Many failing components, one tech with slow repairs: queueing must
	// appear and worsen availability vs a large crew.
	var comps []Component
	for i := 0; i < 50; i++ {
		comps = append(comps, Component{ID: i, FITs: 5e5, RepairMinutes: 600, DrainPorts: 1})
	}
	sys := &System{TotalPorts: 50, Components: comps}
	one, err := SimulateCtx(context.Background(), sys, 8760, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	many, err := SimulateCtx(context.Background(), sys, 8760, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	if one.WaitedRepairs == 0 {
		t.Error("single tech never queued")
	}
	if one.Availability >= many.Availability {
		t.Errorf("1 tech availability %v not worse than 25 techs %v",
			one.Availability, many.Availability)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	sys, err := SwitchFleet(8, 32, 8, 3000, 800, 90, 180, 12)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SimulateCtx(context.Background(), sys, 8760, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCtx(context.Background(), sys, 8760, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestSimulateValidation(t *testing.T) {
	sys := &System{TotalPorts: 1}
	if _, err := SimulateCtx(context.Background(), sys, 100, 0, 1); err == nil {
		t.Error("zero techs accepted")
	}
	if _, err := SimulateCtx(context.Background(), sys, 0, 1, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := SimulateManyCtx(context.Background(), sys, 100, 1, 0, 1); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestMTTRIncludesTravelAndRepair(t *testing.T) {
	sys := &System{TotalPorts: 4, Components: []Component{
		{ID: 0, FITs: 1e6, RepairMinutes: 100, TravelMinutes: 20, DrainPorts: 4},
	}}
	res, err := SimulateManyCtx(context.Background(), sys, 20000, 4, 20, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures")
	}
	// With an idle crew, MTTR = travel + repair = 120 min exactly.
	if math.Abs(float64(res.MeanMTTR)-120) > 1 {
		t.Errorf("MTTR = %v, want 120 min", res.MeanMTTR)
	}
}

func TestCablePlant(t *testing.T) {
	sys, err := CablePlant(100, 2500, 45, 60, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Components) != 100 || sys.TotalPorts != 200 {
		t.Fatalf("plant = %d components, %d ports", len(sys.Components), sys.TotalPorts)
	}
	for _, c := range sys.Components {
		if c.Kind != CompCable || c.DrainPorts != 2 {
			t.Fatalf("component %d: %v drains %d", c.ID, c.Kind, c.DrainPorts)
		}
	}
	if _, err := CablePlant(0, 1, 1, 1, 1); err == nil {
		t.Error("zero cables accepted")
	}
}

func TestLocalizationExtendsMTTR(t *testing.T) {
	passive, err := CablePlant(64, 1e5, 45, 60, 15)
	if err != nil {
		t.Fatal(err)
	}
	active, err := CablePlant(64, 1e5, 2, 60, 15)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := SimulateManyCtx(context.Background(), passive, 50000, 8, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := SimulateManyCtx(context.Background(), active, 50000, 8, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	// With idle techs, MTTR difference equals the localization delta.
	if diff := float64(rp.MeanMTTR - ra.MeanMTTR); diff < 40 || diff > 46 {
		t.Errorf("MTTR delta = %v min, want ≈ 43", diff)
	}
	if ra.Availability <= rp.Availability {
		t.Errorf("active panels did not improve availability: %v vs %v",
			ra.Availability, rp.Availability)
	}
}
