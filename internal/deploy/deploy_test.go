package deploy

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/costmodel"
	"physdep/internal/floorplan"
	"physdep/internal/physerr"
	"physdep/internal/placement"
	"physdep/internal/topology"
	"physdep/internal/units"
)

type fixture struct {
	topo  *topology.Topology
	floor *floorplan.Floorplan
	place *placement.Placement
	plan  *cabling.Plan
	model *costmodel.Model
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
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
	return &fixture{topo: ft, floor: f, place: p, plan: plan, model: costmodel.Default()}
}

func TestBuildPlanStructure(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	if err := dp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := dp.countKind(TaskInstallRack); got != fx.place.NumRacks() {
		t.Errorf("rack tasks = %d, want %d", got, fx.place.NumRacks())
	}
	if got := dp.countKind(TaskInstallSwitch); got != fx.topo.N {
		t.Errorf("switch tasks = %d, want %d", got, fx.topo.N)
	}
	if got := dp.countKind(TaskConnect); got != len(fx.plan.Cables) {
		t.Errorf("connect tasks = %d, want %d", got, len(fx.plan.Cables))
	}
	if got := dp.countKind(TaskValidate); got != len(fx.plan.Cables) {
		t.Errorf("validate tasks = %d, want %d", got, len(fx.plan.Cables))
	}
}

func TestPrebundleReducesPullTasksAndMovesLaborOffFloor(t *testing.T) {
	fx := newFixture(t)
	with := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	without := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: false})
	if with.countKind(TaskPullBundle) >= without.countKind(TaskPullBundle) {
		t.Errorf("prebundle pulls = %d, individual pulls = %d — expected fewer with bundling",
			with.countKind(TaskPullBundle), without.countKind(TaskPullBundle))
	}
	if with.OffFloorMinutes <= 0 {
		t.Error("prebundle produced no off-floor prefab labor")
	}
	if without.OffFloorMinutes != 0 {
		t.Error("individual pulls charged prefab labor")
	}
}

func TestExecuteBasics(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	s, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan <= 0 {
		t.Error("makespan not positive")
	}
	if s.LaborMinutes < s.Makespan {
		t.Errorf("labor %v < makespan %v with 4 techs", s.LaborMinutes, s.Makespan)
	}
	if s.Connections != len(fx.plan.Cables) {
		t.Errorf("connections = %d, want %d", s.Connections, len(fx.plan.Cables))
	}
	if y := s.FirstPassYield(); y < 0.8 || y > 1 {
		t.Errorf("first-pass yield = %v, implausible", y)
	}
}

func TestExecuteMoreTechsFasterWallClock(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	s1, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 1, Seed: 1, YieldOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	s8, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 8, Seed: 1, YieldOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s8.Makespan >= s1.Makespan {
		t.Errorf("8 techs (%v) not faster than 1 (%v)", s8.Makespan, s1.Makespan)
	}
	// With 1 tech, makespan == labor minutes (serial execution).
	if diff := float64(s1.Makespan - s1.LaborMinutes); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("serial makespan %v != labor %v", s1.Makespan, s1.LaborMinutes)
	}
}

func TestExecutePerfectYieldNoReworks(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	s, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 4, Seed: 1, YieldOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Reworks != 0 {
		t.Errorf("reworks = %d with perfect yield", s.Reworks)
	}
	if s.FirstPassYield() != 1 {
		t.Errorf("yield = %v, want 1", s.FirstPassYield())
	}
}

func TestExecuteLowYieldCausesReworks(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	s, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 4, Seed: 1, YieldOverride: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Reworks == 0 {
		t.Error("no reworks at 50% yield")
	}
	good, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 4, Seed: 1, YieldOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan <= good.Makespan {
		t.Errorf("low-yield makespan %v not worse than clean %v", s.Makespan, good.Makespan)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	a, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Reworks != b.Reworks || a.LaborMinutes != b.LaborMinutes {
		t.Errorf("same seed, different schedules: %+v vs %+v", a, b)
	}
}

func TestExecuteRespectsDependencies(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	s, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 6, Seed: 2, YieldOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range dp.Tasks {
		for _, d := range task.Deps {
			depEnd := s.TaskStart[d] + dp.Tasks[d].Minutes
			if s.TaskStart[task.ID] < depEnd-1e-9 {
				t.Fatalf("task %d (%v cable %d at %v) started %v before dep %d finished %v",
					task.ID, task.Kind, task.CableIdx, task.Loc, s.TaskStart[task.ID], d, depEnd)
			}
		}
	}
}

// TestExecuteRejectsZeroTechs: a crew below one technician is a
// parameter out of its envelope, matchable with errors.Is.
func TestExecuteRejectsZeroTechs(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{})
	for _, techs := range []int{0, -3} {
		_, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: techs})
		if !errors.Is(err, physerr.ErrOutOfRange) {
			t.Errorf("techs=%d: got %v, want ErrOutOfRange", techs, err)
		}
	}
}

func TestLaborCostIncludesOffFloor(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	s, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 4, Seed: 1, YieldOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fx.model.LaborCost(s.LaborMinutes + s.OffFloorMinutes)
	if got := s.LaborCost(fx.model); got != want {
		t.Errorf("LaborCost = %v, want %v", got, want)
	}
	if s.OffFloorMinutes != dp.OffFloorMinutes {
		t.Errorf("off-floor minutes %v != plan %v", s.OffFloorMinutes, dp.OffFloorMinutes)
	}
}

func TestWalkTimeCharged(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	s, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 2, Seed: 3, YieldOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.WalkMinutes <= 0 {
		t.Error("no walking time charged across a 3x10 hall")
	}
	// At yield 1 there are no reworks, so the crew's task minutes are
	// exactly the plan's.
	var sum units.Minutes
	for _, task := range dp.Tasks {
		sum += task.Minutes
	}
	if diff := float64(s.LaborMinutes - s.WalkMinutes - sum); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("labor (%v) != walk (%v) + task minutes (%v)", s.LaborMinutes, s.WalkMinutes, sum)
	}
}

func TestMaxWorkersPerRackRespected(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	const cap = 1
	s, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{
		Techs: 8, Seed: 2, YieldOverride: 1, MaxWorkersPerRack: cap})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct per-rack concurrency from the schedule: at no instant
	// may more than cap tasks overlap at one rack.
	type iv struct{ start, end float64 }
	byRack := map[string][]iv{}
	for _, task := range dp.Tasks {
		start := float64(s.TaskStart[task.ID])
		byRack[task.Loc.String()] = append(byRack[task.Loc.String()],
			iv{start, start + float64(task.Minutes)})
	}
	for rack, ivs := range byRack {
		for i := range ivs {
			overlap := 0
			for j := range ivs {
				if ivs[j].start < ivs[i].end-1e-9 && ivs[i].start < ivs[j].end-1e-9 {
					overlap++
				}
			}
			if overlap > cap {
				t.Fatalf("rack %s: %d overlapping tasks, cap %d", rack, overlap, cap)
			}
		}
	}
}

func TestWorkerCapSlowsWallClock(t *testing.T) {
	fx := newFixture(t)
	dp := Build(fx.place, fx.plan, fx.model, BuildOptions{Prebundle: true})
	free, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{Techs: 12, Seed: 3, YieldOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := ExecuteCtx(context.Background(), dp, fx.model, fx.floor, ExecOptions{
		Techs: 12, Seed: 3, YieldOverride: 1, MaxWorkersPerRack: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Makespan < free.Makespan {
		t.Errorf("cap made schedule faster: %v < %v", capped.Makespan, free.Makespan)
	}
	if capped.Makespan == free.Makespan {
		t.Logf("note: cap did not bind on this plan (makespan %v)", free.Makespan)
	}
}
