package experiments

import (
	"context"
	"fmt"
	"math"

	"physdep/internal/cabling"
	"physdep/internal/costmodel"
	"physdep/internal/deploy"
	"physdep/internal/floorplan"
	"physdep/internal/placement"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// E2MediaCrossover sweeps link length at 100G and 400G and reports which
// media the catalog selects, the cost, and the cross-section — the §3.1
// physics: copper dies with distance, 400G copper is 2.7× fatter, and a
// rack of 256 of them stops fitting.
func E2MediaCrossover(ctx context.Context) (*Result, error) {
	cat := cabling.DefaultCatalog()
	res := &Result{
		ID:    "E2",
		Title: "Cable media crossover vs length and rate",
		Paper: "§3.1 (AWS): 2.5 m 100G DAC 6.7 mm OD → 400G 11 mm OD (2.7× area); AEC thinner; optics expensive",
	}
	res.Lines = append(res.Lines,
		fmt.Sprintf("%8s | %-10s %9s %8s | %-10s %9s %8s",
			"length_m", "100G media", "cost_$", "area_mm2", "400G media", "cost_$", "area_mm2"))
	for _, L := range []units.Meters{1, 2.5, 5, 10, 30, 100, 300} {
		row := fmt.Sprintf("%8.1f |", float64(L))
		for _, rate := range []units.Gbps{100, 400} {
			s, err := cat.Select(rate, L, 0)
			if err != nil {
				row += fmt.Sprintf(" %-10s %9s %8s |", "none", "-", "-")
				continue
			}
			row += fmt.Sprintf(" %-10s %9.0f %8.1f |", s.Name, float64(s.Cost(L)), float64(s.CrossSection()))
		}
		res.Lines = append(res.Lines, row)
	}
	// The 256-cables-in-a-rack check.
	d100, err := cat.Select(100, 2.5, 0)
	if err != nil {
		return nil, err
	}
	d400, err := cat.Select(400, 2.5, 0)
	if err != nil {
		return nil, err
	}
	var a400 cabling.Spec
	for _, s := range cat.Media {
		if s.Name == "400G-AEC" {
			a400 = s
		}
	}
	plenum := float64(floorplan.PlenumCapacity)
	packing := 1.3 // cables don't tile
	fits := func(s cabling.Spec) int {
		return int(plenum / (float64(s.CrossSection()) * packing))
	}
	res.Lines = append(res.Lines, "")
	res.Lines = append(res.Lines, fmt.Sprintf(
		"rack plenum %.0f mm²: fits %d × %s, %d × %s, %d × %s (need 256)",
		plenum, fits(d100), d100.Name, fits(d400), d400.Name, fits(a400), a400.Name))
	ratio := float64(d400.CrossSection()) / float64(d100.CrossSection())
	res.Notes = fmt.Sprintf("400G/100G DAC cross-section ratio = %.2f (paper: 2.7×); AEC restores the fit — AWS's resolution", ratio)
	if math.Abs(ratio-2.7) > 0.05 {
		return nil, fmt.Errorf("E2: DAC area ratio %.2f drifted from the paper's 2.7", ratio)
	}
	return res, nil
}

// e8Fixture deploys a mid-size fat-tree twice: once with pre-built
// bundles, once pulling every cable individually.
func e8Fixture(ctx context.Context) (withB, withoutB deploy.Schedule, model *costmodel.Model, err error) {
	model = costmodel.Default()
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		return
	}
	hall := floorplan.DefaultHall(4, 12)
	for _, pre := range []bool{true, false} {
		var f *floorplan.Floorplan
		f, err = floorplan.NewFloorplan(hall)
		if err != nil {
			return
		}
		var p *placement.Placement
		p, err = placement.Greedy(ft, f, placement.Config{})
		if err != nil {
			return
		}
		var plan *cabling.Plan
		plan, err = cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
		if err != nil {
			return
		}
		dp := deploy.Build(p, plan, model, deploy.BuildOptions{Prebundle: pre})
		var s deploy.Schedule
		s, err = deploy.ExecuteCtx(ctx, dp, model, f, deploy.ExecOptions{Techs: 8, Seed: 7})
		if err != nil {
			return
		}
		if pre {
			withB = s
		} else {
			withoutB = s
		}
	}
	return
}

// E8Bundling quantifies Singh et al.'s pre-built-bundle savings on a
// k=8 fat-tree build.
func E8Bundling(ctx context.Context) (*Result, error) {
	withB, withoutB, model, err := e8Fixture(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "E8",
		Title: "Pre-built cable bundles vs individual pulls",
		Paper: "§3.1 (Singh et al.): regular pre-constructed bundles saved almost 40% (capex+opex) and weeks of delay",
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-14s %12s %12s %12s",
		"mode", "deploy_hrs", "floor_labor", "labor_cost$"))
	row := func(name string, s deploy.Schedule) string {
		return fmt.Sprintf("%-14s %12.1f %12.0f %12.0f",
			name, float64(s.Makespan.Hours()), float64(s.LaborMinutes),
			float64(s.LaborCost(model)))
	}
	res.Lines = append(res.Lines, row("individual", withoutB), row("prebundled", withB))
	saving := 1 - float64(withB.LaborCost(model))/float64(withoutB.LaborCost(model))
	speedup := 1 - float64(withB.Makespan)/float64(withoutB.Makespan)
	res.Notes = fmt.Sprintf("bundling saves %.0f%% labor cost and %.0f%% wall-clock (paper: ~40%% capex+opex and weeks)",
		100*saving, 100*speedup)
	return res, nil
}

// E9StrandedCapital reproduces the §2.3 arithmetic: an extra few minutes
// per installed item, times 10k items, times stranded server capital.
func E9StrandedCapital(ctx context.Context) (*Result, error) {
	m := costmodel.Default()
	res := &Result{
		ID:    "E9",
		Title: "Per-item overhead → fleet-scale delay → stranded capital",
		Paper: "§2.3: \"An extra 5 minutes per thing adds up quickly when you have to install 10k things (about 1 week of added time)\"",
	}
	const items = 10000
	const crew = 20 // technicians working in parallel
	res.Lines = append(res.Lines, fmt.Sprintf("%12s %14s %12s %14s",
		"extra_min", "added_tech_hrs", "added_days", "stranded_$"))
	for _, extra := range []float64{0, 1, 2, 5, 10} {
		addedMinutes := extra * items
		addedHours := units.Hours(addedMinutes / 60)
		wallDays := float64(addedHours) / crew / 8 // 8h shifts
		// While deployment drags, the servers those items serve sit dark.
		stranded := m.StrandedCost(items, units.Hours(wallDays*24))
		res.Lines = append(res.Lines, fmt.Sprintf("%12.0f %14.0f %12.1f %14.0f",
			extra, float64(addedHours), wallDays, float64(stranded)))
	}
	res.Notes = "5 extra minutes ≈ 833 tech-hours ≈ a work-week for a 20-person crew, exactly the paper's arithmetic"
	return res, nil
}
