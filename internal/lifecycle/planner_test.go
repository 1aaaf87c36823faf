package lifecycle

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
	"physdep/internal/solver"
	"physdep/internal/topology"
	"physdep/internal/units"
)

func plannerFixture(t *testing.T) (*topology.Topology, JellyfishGrower, PlannerConfig) {
	t.Helper()
	cfg := topology.JellyfishConfig{N: 24, K: 12, R: 6, Rate: 100, Seed: 5}
	jf, err := topology.Jellyfish(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := PlannerConfig{
		Stages:      []GrowthStage{{AddToRs: 2}, {AddTrunks: 2}, {AddToRs: 1, AddTrunks: 1}},
		AnnealSteps: 400, Seed: 11,
	}
	return jf, JellyfishGrower{Cfg: cfg}, pcfg
}

func TestPlannerConfigValidate(t *testing.T) {
	_, _, good := plannerFixture(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("fixture config invalid: %v", err)
	}
	mut := func(f func(*PlannerConfig)) PlannerConfig {
		c := good
		c.Stages = append([]GrowthStage(nil), good.Stages...)
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  PlannerConfig
		kind error
	}{
		{"no stages", mut(func(c *PlannerConfig) { c.Stages = nil }), physerr.ErrOutOfRange},
		{"negative counts", mut(func(c *PlannerConfig) { c.Stages[0].AddToRs = -1 }), physerr.ErrOutOfRange},
		{"empty stage", mut(func(c *PlannerConfig) { c.Stages[0] = GrowthStage{} }), physerr.ErrOutOfRange},
		{"negative steps", mut(func(c *PlannerConfig) { c.AnnealSteps = -1 }), physerr.ErrOutOfRange},
		{"huge steps", mut(func(c *PlannerConfig) { c.AnnealSteps = solver.MaxAnnealSteps + 1 }), physerr.ErrOutOfRange},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); !errors.Is(err, c.kind) {
			t.Errorf("%s: Validate() = %v, want %v", c.name, err, c.kind)
		}
	}
	if err := mut(func(c *PlannerConfig) { c.AnnealSteps = solver.MaxAnnealSteps }).Validate(); err != nil {
		t.Errorf("AnnealSteps at its bound rejected: %v", err)
	}
}

// TestPlanGrowthCapacity: a schedule that outgrows the planner's floor
// is a capacity error from PlanGrowth (it needs t.N), and one that ends
// exactly at the floor's size is not.
func TestPlanGrowthCapacity(t *testing.T) {
	jf, g, cfg := plannerFixture(t)
	room := plannerFloor.racks()*plannerFloor.ToRsPerRack - jf.N // 64 − 24
	cfg.Stages = []GrowthStage{{AddToRs: room + 1}}
	if _, err := PlanGrowthCtx(context.Background(), jf, g, cfg); !errors.Is(err, physerr.ErrCapacity) {
		t.Fatalf("schedule past the floor: err = %v, want ErrCapacity", err)
	}
	cfg.Stages = []GrowthStage{{AddToRs: room}}
	if _, err := PlanGrowthCtx(context.Background(), jf, g, cfg); err != nil {
		t.Fatalf("schedule that fills the floor: %v", err)
	}
}

// TestPlanGrowthDeterminism pins the planner's concurrency contract: the
// plan is deep-equal between a serial run with obs collection off and an
// 8-worker run with collection on, under a live cancellable context.
func TestPlanGrowthDeterminism(t *testing.T) {
	jf, g, cfg := plannerFixture(t)
	runAt := func(workers int, collect bool) *Plan {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		ctx := context.Background()
		if collect {
			obs.Enable()
			defer func() {
				obs.Disable()
				obs.Reset()
			}()
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
		}
		p, err := PlanGrowthCtx(ctx, jf, g, cfg)
		if err != nil {
			t.Fatalf("workers=%d obs=%v: %v", workers, collect, err)
		}
		return p
	}
	serial := runAt(1, false)
	parallel := runAt(8, true)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("plan differs between workers=1/obs-off and workers=8/obs-on:\n%+v\nvs\n%+v",
			serial.Stages, parallel.Stages)
	}
	if serial.AddedToRs != 3 || serial.Trunks != 3 {
		t.Errorf("plan added %d ToRs and %d trunks, want 3 and 3", serial.AddedToRs, serial.Trunks)
	}
	if serial.Rewired != 3*3 { // R/2 = 3 splices per add
		t.Errorf("plan rewired %d, want 9", serial.Rewired)
	}
	if serial.NewLinks != 3 {
		t.Errorf("plan NewLinks = %d, want 3 (one per trunk)", serial.NewLinks)
	}
	// Totals must agree with the steps they summarize.
	var labor, down units.Minutes
	var cable units.Meters
	for _, s := range serial.Steps {
		labor += s.Minutes
		down += s.Downtime
		cable += s.Cable
	}
	if labor != serial.Labor || down != serial.Downtime || cable != serial.Cable {
		t.Errorf("totals (%v, %v, %v) != step sums (%v, %v, %v)",
			serial.Labor, serial.Downtime, serial.Cable, labor, down, cable)
	}
	last := serial.Stages[len(serial.Stages)-1]
	if last.Labor != serial.Labor || last.Rewired != serial.Rewired || last.Walk != serial.Walk {
		t.Errorf("final stage cumulative row %+v disagrees with plan totals", last)
	}
}

// TestPlanGrowthCancel: a pre-canceled or already-expired context yields
// physerr.ErrCanceled and the caller's topology is untouched.
func TestPlanGrowthCancel(t *testing.T) {
	jf, g, cfg := plannerFixture(t)
	n, edges := jf.N, jf.NumEdges()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlanGrowthCtx(canceled, jf, g, cfg); !errors.Is(err, physerr.ErrCanceled) {
		t.Errorf("pre-canceled ctx: err = %v, want ErrCanceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	if _, err := PlanGrowthCtx(expired, jf, g, cfg); !errors.Is(err, physerr.ErrCanceled) {
		t.Errorf("expired deadline: err = %v, want ErrCanceled", err)
	}
	if jf.N != n || jf.NumEdges() != edges {
		t.Errorf("canceled planning mutated the input: %d/%d nodes, %d/%d edges",
			n, jf.N, edges, jf.NumEdges())
	}
}

// TestPlanGrowthInputUntouched: even a successful run leaves the input
// topology exactly as given (the planner works on a clone).
func TestPlanGrowthInputUntouched(t *testing.T) {
	jf, g, cfg := plannerFixture(t)
	n, edges := jf.N, jf.NumEdges()
	if _, err := PlanGrowthCtx(context.Background(), jf, g, cfg); err != nil {
		t.Fatal(err)
	}
	if jf.N != n || jf.NumEdges() != edges {
		t.Errorf("planning mutated the input: %d/%d nodes, %d/%d edges", n, jf.N, edges, jf.NumEdges())
	}
}

// TestPlannedOrderingNoWorseThanNaive: with identical rewire choices
// (same seed), turning the ordering anneal on cannot
// produce a costlier crew route than schedule order — the planner keeps
// the identity ordering if the search ends worse.
func TestPlannedOrderingNoWorseThanNaive(t *testing.T) {
	jf, g, cfg := plannerFixture(t)
	cfg.Stages = []GrowthStage{{AddToRs: 4, AddTrunks: 4}, {AddToRs: 2, AddTrunks: 2}}
	naiveCfg := cfg
	naiveCfg.AnnealSteps = 0
	naive, err := PlanGrowthCtx(context.Background(), jf, g, naiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := PlanGrowthCtx(context.Background(), jf, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same physical work either way; only the route may differ.
	if planned.Rewired != naive.Rewired || planned.NewLinks != naive.NewLinks ||
		planned.AddedToRs != naive.AddedToRs {
		t.Fatalf("ordering search changed the work itself: %+v vs %+v", planned, naive)
	}
	routeCostOf := func(p *Plan) float64 {
		return floorMinutes(p.FloorVisits, p.Walk)
	}
	if routeCostOf(planned) > routeCostOf(naive) {
		t.Errorf("annealed route costs %.2f, naive %.2f — identity guard failed",
			routeCostOf(planned), routeCostOf(naive))
	}
	// Steps stay grouped by stage: capacity stages are sequence points.
	lastStage := 0
	for _, s := range planned.Steps {
		if s.Stage < lastStage {
			t.Fatalf("step %d runs stage %d after stage %d", s.Seq, s.Stage, lastStage)
		}
		lastStage = s.Stage
	}
}

// TestXpanderGrowerLegality: planner-driven Xpander adds respect the
// meta-node rule — no splice endpoint in the new ToR's own meta-node.
func TestXpanderGrowerLegality(t *testing.T) {
	xcfg := topology.XpanderConfig{D: 6, Lift: 5, ServerPorts: 4, Rate: 100, Seed: 3}
	x, err := topology.Xpander(xcfg)
	if err != nil {
		t.Fatal(err)
	}
	g := XpanderGrower{Cfg: xcfg}
	cfg := PlannerConfig{Stages: []GrowthStage{{AddToRs: 3}}, Seed: 7}
	plan, err := PlanGrowthCtx(context.Background(), x, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rewired != 3*3 { // D/2 = 3 splices per add
		t.Errorf("Rewired = %d, want 9", plan.Rewired)
	}
	// Run one add through the grower with the planner's own chooser and
	// check every splice endpoint lies outside the new ToR's meta-node.
	work := x.CloneTopology()
	chooser := newSpliceChooser(plannerFloor, rand.New(rand.NewPCG(7, 7)), 99)
	id, rewires, err := g.AddToR(work, 0, chooser)
	if err != nil {
		t.Fatal(err)
	}
	m := work.Nodes[id].Pod
	seen := map[int]bool{}
	for _, rw := range rewires {
		for _, sw := range [2]int{rw.A, rw.B} {
			if work.Nodes[sw].Pod == m {
				t.Errorf("splice endpoint %d is inside the new ToR's meta-node %d", sw, m)
			}
			if seen[sw] {
				t.Errorf("endpoint %d appears in two splices of one add", sw)
			}
			seen[sw] = true
		}
	}
}

// TestPlanGrowthFreezesOncePerStage pins the planner's snapshot budget:
// a 50-stage growth schedule (40 trunk-only stages, 10 ToR adds) must do
// exactly one full CSR pack per stage, so a stage that freezes its
// working graph twice — or a kernel that stops sharing the snapshot —
// fails here.
func TestPlanGrowthFreezesOncePerStage(t *testing.T) {
	cfg := topology.JellyfishConfig{N: 40, K: 12, R: 6, Rate: 100, Seed: 5}
	jf, err := topology.Jellyfish(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]GrowthStage, 50)
	for i := range stages {
		if i%5 == 0 {
			stages[i] = GrowthStage{AddToRs: 1} // live splices
		} else {
			stages[i] = GrowthStage{AddTrunks: 1} // additions only
		}
	}
	pcfg := PlannerConfig{Stages: stages, Seed: 2}
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	before := obs.TakeSnapshot().Counters
	plan, err := PlanGrowthCtx(context.Background(), jf, JellyfishGrower{Cfg: cfg}, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	after := obs.TakeSnapshot().Counters
	builds := after["graph.freeze.builds"] - before["graph.freeze.builds"]
	if builds != int64(len(stages)) {
		t.Errorf("50-stage schedule did %d CSR packs, want exactly %d (one per stage)", builds, len(stages))
	}
	if plan.Trunks != 40 || plan.AddedToRs != 10 {
		t.Fatalf("plan did %d trunks / %d adds, want 40 / 10", plan.Trunks, plan.AddedToRs)
	}
}
