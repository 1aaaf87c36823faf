package experiments

import (
	"context"
	"fmt"

	"physdep/internal/lifecycle"
	"physdep/internal/physerr"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// E23PlannerGrowthCost grows a Jellyfish, an Xpander, and a panel-Clos
// through the same four-stage schedule and compares cumulative physical
// cost stage by stage: the expanders pay splice labor, downtime windows,
// and floor walks on every stage; the Clos pays only panel jumpers.
func E23PlannerGrowthCost(ctx context.Context) (*Result, error) {
	costs := lifecycle.DefaultActionCosts()
	res := &Result{
		ID:    "E23",
		Title: "Multi-step growth plans: cumulative cost per stage across fabrics",
		Paper: "§4.2: expander growth rewires live links at scattered sites every step; §4.1: panel indirection contains each step at the panel bank",
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-10s %6s %9s %9s %7s %10s %8s %9s",
		"fabric", "stage", "rewired", "newlinks", "visits", "labor_hrs", "cable_m", "down_min"))
	stages := []lifecycle.GrowthStage{
		{AddToRs: 2, AddTrunks: 1}, {AddToRs: 2, AddTrunks: 1},
		{AddToRs: 2, AddTrunks: 1}, {AddToRs: 2, AddTrunks: 1},
	}
	pcfg := lifecycle.PlannerConfig{Stages: stages, AnnealSteps: 2000, Seed: 23}
	planRows := func(name string, plan *lifecycle.Plan) {
		for _, st := range plan.Stages {
			res.Lines = append(res.Lines, fmt.Sprintf("%-10s %6d %9d %9d %7d %10.1f %8.0f %9.0f",
				name, st.Stage, st.Rewired, st.NewLinks, st.FloorVisits,
				float64(st.Labor.Hours()), float64(st.Cable), float64(st.Downtime)))
		}
	}

	jcfg := topology.JellyfishConfig{N: 40, K: 12, R: 6, Rate: 100, Seed: 23}
	jf, err := topology.Jellyfish(jcfg)
	if err != nil {
		return nil, err
	}
	jplan, err := lifecycle.PlanGrowthCtx(ctx, jf, lifecycle.JellyfishGrower{Cfg: jcfg}, pcfg)
	if err != nil {
		return nil, err
	}
	planRows("jellyfish", jplan)

	xcfg := topology.XpanderConfig{D: 6, Lift: 5, ServerPorts: 4, Rate: 100, Seed: 23}
	xp, err := topology.Xpander(xcfg)
	if err != nil {
		return nil, err
	}
	xplan, err := lifecycle.PlanGrowthCtx(ctx, xp, lifecycle.XpanderGrower{Cfg: xcfg}, pcfg)
	if err != nil {
		return nil, err
	}
	planRows("xpander", xplan)

	// The panel-Clos runs the same four installs-of-two through
	// ExpandAggs on one live fabric; its "trunk" capacity rides the
	// pre-installed panel fiber, so the schedule's trunk adds are free.
	// All work happens at panels: no downtime windows, no floor cable.
	cf, err := lifecycle.NewClosFabric(16, 8, 16, 64)
	if err != nil {
		return nil, err
	}
	if _, err := cf.Rewire(lifecycle.UniformDemand(16, 8, 16)); err != nil {
		return nil, err
	}
	var cum lifecycle.ExpansionStep
	var closLabor units.Minutes
	for si := range stages {
		if err := ctx.Err(); err != nil {
			return nil, physerr.Canceled(err)
		}
		step, _, err := lifecycle.ExpandClosViaPanels(cf, 2, 16, 64)
		if err != nil {
			return nil, err
		}
		cum.AddedToRs += step.AddedToRs
		cum.Rewired += step.Rewired
		cum.NewLinks += step.NewLinks
		cum.FloorTasks += step.FloorTasks
		closLabor += step.LaborMinutes() +
			costs.InstallToR*units.Minutes(step.AddedToRs) +
			costs.FloorVisit*units.Minutes(step.FloorTasks)
		res.Lines = append(res.Lines, fmt.Sprintf("%-10s %6d %9d %9d %7d %10.1f %8.0f %9.0f",
			"clos+panel", si, cum.Rewired, cum.NewLinks, cum.FloorTasks,
			float64(closLabor.Hours()), 0.0, 0.0))
	}
	res.Notes = "cumulative columns; expanders accrue splice downtime and floor cable every stage, the panel-grown Clos accrues neither"
	return res, nil
}

// E24PlannerVsNaive runs the same growth schedule through the planner
// twice — schedule order (a naive greedy crew) vs the annealed work
// ordering — with identical rewire choices, isolating what ordering
// alone is worth in floor visits and walking.
func E24PlannerVsNaive(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E24",
		Title: "Expansion work ordering: annealed plan vs naive schedule order",
		Paper: "§4.2: Jellyfish growth work is scattered across the floor — pre-planning the crew's route is 'highly non-trivial' but pays",
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-10s %8s %8s %11s %11s %10s",
		"mode", "visits", "walk_m", "route_min", "labor_hrs", "cable_m"))
	jcfg := topology.JellyfishConfig{N: 40, K: 12, R: 6, Rate: 100, Seed: 24}
	jf, err := topology.Jellyfish(jcfg)
	if err != nil {
		return nil, err
	}
	stages := []lifecycle.GrowthStage{{AddToRs: 3, AddTrunks: 3}, {AddToRs: 3, AddTrunks: 3}}
	for _, mode := range []struct {
		name  string
		steps int
	}{{"naive", 0}, {"planned", 4000}} {
		cfg := lifecycle.PlannerConfig{Stages: stages, AnnealSteps: mode.steps, Seed: 24}
		plan, err := lifecycle.PlanGrowthCtx(ctx, jf, lifecycle.JellyfishGrower{Cfg: jcfg}, cfg)
		if err != nil {
			return nil, err
		}
		res.Lines = append(res.Lines, fmt.Sprintf("%-10s %8d %8.0f %11.1f %11.1f %10.0f",
			mode.name, plan.FloorVisits, float64(plan.Walk), plan.RouteMinutes(),
			float64(plan.Labor.Hours()), float64(plan.Cable)))
	}
	res.Notes = "both modes perform identical splices and trunks; the annealed ordering only re-sequences work within each stage, so its route cost is never worse"
	return res, nil
}
