// Live expansion planning (§2.1, §4.1): grow a patch-panel Clos from 8
// to 12 aggregation blocks in two increments, comparing the minimal-
// rewiring plan through the panel layer against re-pulling fibers on the
// floor, and showing the lifecycle-complexity metrics (Zhang et al.)
// for each step. Then the expander side of the coin: the multi-step
// planner (DESIGN.md §14) schedules a Jellyfish growth — choosing which
// live links to splice and in what order to work the floor — and prints
// the resulting typed work plan.
//
//	go run ./examples/expansion_planning
package main

import (
	"context"
	"fmt"
	"log"

	"physdep/internal/costmodel"
	"physdep/internal/lifecycle"
	"physdep/internal/topology"
	"physdep/internal/units"
)

func main() {
	const spines, uplinks, panelPorts = 8, 32, 64
	m := costmodel.Default()

	cf, err := lifecycle.NewClosFabric(8, spines, uplinks, panelPorts)
	if err != nil {
		log.Fatal(err)
	}
	// Mid-life striping: topology engineering has skewed capacity toward
	// a hot agg pair (a balanced 2×2 trade keeps row/column sums legal).
	demand := lifecycle.UniformDemand(8, spines, uplinks)
	demand[0][0] += 2
	demand[0][1] -= 2
	demand[1][0] -= 2
	demand[1][1] += 2
	if _, err := cf.Rewire(demand); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("starting fabric: %d agg blocks × %d uplinks through %d patch panels\n\n",
		cf.Aggs, uplinks, len(cf.Panels))

	fmt.Printf("%-12s %8s %10s %12s %10s %12s %12s\n",
		"step", "aggs", "moves", "new_jumpers", "panels", "max/panel", "labor_hrs")
	for step, add := range []int{2, 2} {
		rep, err := cf.ExpandAggs(add, uplinks, panelPorts)
		if err != nil {
			log.Fatal(err)
		}
		labor := rep.LaborMinutes(m.JumperMove)
		fmt.Printf("%-12s %8d %10d %12d %10d %12d %12.1f\n",
			fmt.Sprintf("expand-%d", step+1), cf.Aggs, rep.JumperMoves, rep.NewConnects,
			rep.PanelsTouched, rep.MaxPerPanel, float64(labor.Hours()))
	}

	// The counterfactual: the same logical change without the panel
	// layer means every moved trunk is a floor fiber re-pulled end to
	// end.
	fmt.Println("\ncounterfactual without the panel layer (per moved trunk):")
	perMove := units.Minutes(float64(m.JumperMove)*6 + float64(m.PullCableFixed))
	fmt.Printf("  %.0f min of careful live-fiber work at two rack sites, vs %.0f min at a panel\n",
		float64(perMove), float64(m.JumperMove))
	fmt.Println("\nper the paper (§4.1, quoting Zhao et al.): panels let the topology expand")
	fmt.Println("\"without walking around the data center floor or requiring the addition or")
	fmt.Println("removal of existing fiber\".")

	// --- The expander counterpart: a Jellyfish has no panel layer, so
	// every growth step splices live links at switches scattered across
	// the floor. The planner searches over splice choices (fewer, closer
	// racks) and crew work ordering, and emits the full typed plan.
	jcfg := topology.JellyfishConfig{N: 32, K: 12, R: 6, Rate: 100, Seed: 42}
	jf, err := topology.Jellyfish(jcfg)
	if err != nil {
		log.Fatal(err)
	}
	pcfg := lifecycle.PlannerConfig{
		Stages: []lifecycle.GrowthStage{
			{AddToRs: 2, AddTrunks: 1},
			{AddToRs: 2, AddTrunks: 1},
			{AddToRs: 2, AddTrunks: 1},
		},
		AnnealSteps: 2000, Seed: 42,
	}
	plan, err := lifecycle.PlanGrowthCtx(context.Background(), jf, lifecycle.JellyfishGrower{Cfg: jcfg}, pcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njellyfish growth plan (%d stages, %d typed steps):\n",
		len(plan.Stages), len(plan.Steps))
	fmt.Printf("%-6s %9s %6s %9s %10s %9s %8s\n",
		"stage", "switches", "hops", "rewired", "labor_hrs", "cable_m", "down_min")
	for _, st := range plan.Stages {
		fmt.Printf("%-6d %9d %6.2f %9d %10.1f %9.0f %8.0f\n",
			st.Stage, st.Switches, st.MeanHops, st.Rewired,
			float64(st.Labor.Hours()), float64(st.Cable), float64(st.Downtime))
	}
	fmt.Println("\nfirst work items of the annealed crew route:")
	for _, s := range plan.Steps[:8] {
		fmt.Printf("  %3d. stage %d  %-8s rack %2d  %5.1f min\n",
			s.Seq, s.Stage, s.Kind, s.Rack, float64(s.Minutes))
	}
	fmt.Printf("\ntotals: %d floor visits, %.0f m walked, %.1f h labor, %.0f min of link downtime\n",
		plan.FloorVisits, float64(plan.Walk), float64(plan.Labor.Hours()), float64(plan.Downtime))
}
