package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"physdep/internal/costmodel"
	"physdep/internal/lifecycle"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// E3ExpansionComplexity grows three fabrics by the same increments and
// compares live-link rewiring cost: Clos-through-panels (minimal
// rewiring à la Zhao), Xpander (d/2 per ToR), and Jellyfish (r/2 random
// splices per ToR) — the Zhang-style lifecycle metrics.
func E3ExpansionComplexity(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E3",
		Title: "Incremental expansion: live links rewired per unit added",
		Paper: "§4.2: Xpander requires as many as d/2 links rewired per added ToR; Jellyfish pre-placement is 'highly non-trivial'; §4.1: panel indirection avoids floor walks",
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-14s %6s %9s %9s %10s %12s",
		"fabric", "added", "rewired", "newlinks", "sites", "labor_hrs"))
	const d = 16 // uplinks per unit across all three fabrics

	addRow := func(name string, step lifecycle.ExpansionStep) {
		labor := step.LaborMinutes().Hours()
		res.Lines = append(res.Lines, fmt.Sprintf("%-14s %6d %9d %9d %10d %12.1f",
			name, step.AddedToRs, step.Rewired, step.NewLinks, step.FloorTasks, float64(labor)))
	}

	for _, add := range []int{1, 2, 4, 8} {
		// Clos through patch panels, starting from 16 uniform agg blocks.
		cf, err := lifecycle.NewClosFabric(16, 8, d, 64)
		if err != nil {
			return nil, err
		}
		if _, err := cf.Rewire(lifecycle.UniformDemand(16, 8, d)); err != nil {
			return nil, err
		}
		closStep, _, err := lifecycle.ExpandClosViaPanels(cf, add, d, 64)
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("clos+panels+%d", add), closStep)

		xcfg := topology.XpanderConfig{D: d, Lift: 4, ServerPorts: 8, Rate: 100, Seed: 11}
		xp, err := topology.Xpander(xcfg)
		if err != nil {
			return nil, err
		}
		xStep, err := lifecycle.ExpandXpander(xp, xcfg, add, rand.New(rand.NewPCG(5, uint64(add))))
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("xpander+%d", add), xStep)

		jcfg := topology.JellyfishConfig{N: 68, K: d + 8, R: d, Rate: 100, Seed: 11}
		jf, err := topology.Jellyfish(jcfg)
		if err != nil {
			return nil, err
		}
		jStep, err := lifecycle.ExpandJellyfish(jf, jcfg, add, rand.New(rand.NewPCG(6, uint64(add))))
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("jellyfish+%d", add), jStep)
	}
	res.Notes = "expanders rewire d/2 live links per added unit at scattered sites; a uniform Clos grown through panels adds only new jumpers"
	return res, nil
}

// E4JupiterConversion reproduces the §4.3 case study numbers: converting
// a live Jupiter from fat-tree to direct-connect, rack by rack.
func E4JupiterConversion(ctx context.Context) (*Result, error) {
	cfg := lifecycle.DefaultConversionConfig()
	res := &Result{
		ID:    "E4",
		Title: "Live Jupiter fat-tree → direct-connect conversion",
		Paper: "§4.3: drain each OCS rack, move a lot of fibers without breaking any, un-drain; multiple hours of human labor per rack, across many racks",
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-26s %10s %12s %12s %10s %10s",
		"scenario", "racks", "fibers/rack", "hrs/rack", "total_hrs", "peak_loss"))
	manual, err := lifecycle.PlanConversion(cfg)
	if err != nil {
		return nil, err
	}
	row := func(name string, r lifecycle.ConversionReport) string {
		return fmt.Sprintf("%-26s %10d %12d %12.1f %10.1f %9.0f%%",
			name, r.Racks, r.FibersPerRack, float64(r.PerRackMinutes.Hours()),
			float64(r.LaborMinutes.Hours()), 100*r.PeakCapacityLoss)
	}
	res.Lines = append(res.Lines, row("manual-fiber-moves", manual))
	// Alternative worlds: more crews (faster, more capacity at risk), and
	// a software-reconfigurable OCS layer (§5.1).
	wide := cfg
	wide.Crews = 8
	wide.MaxConcurrentDrainFrac = 0.5
	wideRep, err := lifecycle.PlanConversion(wide)
	if err != nil {
		return nil, err
	}
	res.Lines = append(res.Lines, row("manual-8-crews", wideRep))
	soft, err := lifecycle.OCSConversion(cfg, costmodel.Default().OCSReconfig)
	if err != nil {
		return nil, err
	}
	res.Lines = append(res.Lines, row("software-ocs", soft))
	res.Notes = fmt.Sprintf("per-rack hands-on time %.1f h matches the paper's 'multiple hours per rack'; software OCS cuts labor %.0f×",
		float64(manual.PerRackMinutes.Hours()),
		float64(manual.LaborMinutes)/float64(soft.LaborMinutes))
	return res, nil
}

// E5IndirectionBenefit expands the same logical Clos two ways: through a
// patch-panel layer (§4.1, Zhao et al.) and by directly re-pulling
// fibers across the floor, comparing touched sites and labor.
func E5IndirectionBenefit(ctx context.Context) (*Result, error) {
	m := costmodel.Default()
	res := &Result{
		ID:    "E5",
		Title: "Expansion with vs without a patch-panel indirection layer",
		Paper: "§4.1 (Zhao et al.): panels let the topology be expanded 'without walking around the data center floor or requiring the addition or removal of existing fiber'",
	}
	const aggs, spines, uplinks, panelPorts = 8, 4, 16, 64
	res.Lines = append(res.Lines, fmt.Sprintf("%-18s %8s %14s %12s %12s",
		"mode", "added", "live_touches", "sites", "labor_hrs"))
	for _, add := range []int{2, 4} {
		// With panels: minimal rewiring at the panel bank.
		cf, err := lifecycle.NewClosFabric(aggs, spines, uplinks, panelPorts)
		if err != nil {
			return nil, err
		}
		// Start from a deliberately skewed striping (a network mid-life,
		// after topology engineering) so the expansion must move live
		// jumpers in both modes.
		// A 2×2 trade keeps row sums (uplinks per agg) and column sums
		// (spine capacity) intact while skewing the striping.
		skew := lifecycle.UniformDemand(aggs, spines, uplinks)
		skew[0][0] += 4
		skew[0][1] -= 4
		skew[1][0] -= 4
		skew[1][1] += 4
		if _, err := cf.Rewire(skew); err != nil {
			return nil, err
		}
		rep, err := cf.ExpandAggs(add, uplinks, panelPorts)
		if err != nil {
			return nil, err
		}
		panelLabor := rep.LaborMinutes(m.JumperMove).Hours()
		res.Lines = append(res.Lines, fmt.Sprintf("%-18s %8d %14d %12d %12.1f",
			fmt.Sprintf("panels+%d", add), add, rep.JumperMoves, rep.PanelsTouched,
			float64(panelLabor)))
		// Without panels: every moved trunk is a fiber re-pulled between
		// two racks on the floor — disconnect, re-route, reconnect, at
		// both ends, plus walking. Model each as a full live fiber move
		// (3 jumper-moves' worth of care at each of two sites).
		moves := rep.JumperMoves + rep.NewConnects // same logical changes
		floorLabor := units.Minutes(float64(m.JumperMove)*6*float64(moves) +
			float64(m.PullCableFixed)*float64(moves)).Hours()
		sites := 2 * moves // both endpoints of every moved fiber
		res.Lines = append(res.Lines, fmt.Sprintf("%-18s %8d %14d %12d %12.1f",
			fmt.Sprintf("floor+%d", add), add, moves, sites, float64(floorLabor)))
	}
	res.Notes = "the panel layer concentrates all moves at a handful of panel sites and touches no pre-installed floor fiber"
	return res, nil
}
