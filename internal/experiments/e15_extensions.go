package experiments

import (
	"context"
	"fmt"

	"physdep/internal/costmodel"
	"physdep/internal/deploy"
	"physdep/internal/floorplan"
	"physdep/internal/repair"
	"physdep/internal/topoeng"
	"physdep/internal/topology"
	"physdep/internal/trafficsim"
	"physdep/internal/units"
	"physdep/internal/workload"
)

// E15CapacityPlanning quantifies §2.3's planning claim: the physical
// deployment pipeline's length is a forecasting lead time, and longer
// leads mean worse forecasts, more stranded demand, and more idle
// capital.
func E15CapacityPlanning(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E15",
		Title: "Deployment speed as forecast lead time",
		Paper: "§2.3: slow deployment makes capacity planning harder, because demand forecasts become inaccurate over relatively short timescales; too little strands machines, too much wastes money",
	}
	g := workload.GrowthModel{Start: 10000, MonthlyRate: 0.05, Noise: 0.06, Seed: 17}
	res.Lines = append(res.Lines, fmt.Sprintf("%10s %12s %14s %14s %10s",
		"lead_mo", "fcast_err%", "stranded_u_mo", "idle_u_mo", "installs"))
	outs, err := workload.SweepLeadTimes(g, 72, []int{1, 2, 3, 6, 9, 12})
	if err != nil {
		return nil, err
	}
	prevMismatch := -1.0
	grewAtLeastOnce := false
	for _, o := range outs {
		res.Lines = append(res.Lines, fmt.Sprintf("%10d %12.1f %14.0f %14.0f %10d",
			o.LeadTimeMonths, 100*o.MeanAbsFcastErr, o.StrandedUnitMo, o.IdleUnitMo, o.Installs))
		mismatch := o.StrandedUnitMo + o.IdleUnitMo
		if prevMismatch >= 0 && mismatch > prevMismatch {
			grewAtLeastOnce = true
		}
		prevMismatch = mismatch
	}
	if !grewAtLeastOnce {
		return nil, fmt.Errorf("E15: demand/capacity mismatch never grew with lead time")
	}
	res.Notes = "stranded+idle unit-months grow with lead time: every week shaved off physical deployment is forecast error the planner never pays"
	return res, nil
}

// E16TopologyEngineering quantifies the §4.1 Jupiter Evolving capability:
// an OCS mesh reshaped to a skewed inter-block demand admits more
// traffic than the uniform mesh, at software-speed reconfiguration cost.
func E16TopologyEngineering(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E16",
		Title: "OCS topology engineering vs uniform mesh under skewed demand",
		Paper: "§4.1 (Poutievski et al.): OCS supports frequent changes to the capacity between aggregation blocks, to respond to changing and uneven inter-block traffic demands",
	}
	const blocks, uplinks = 12, 44
	m := costmodel.Default()
	res.Lines = append(res.Lines, fmt.Sprintf("%-12s %9s %9s %11s %12s",
		"mesh", "alpha", "vs_unif", "retargets", "reconfig_min"))
	// Three demand regimes: mild, heavy, and shifting skew.
	uni := topoeng.Uniform(blocks, uplinks)
	for _, sc := range []struct {
		name string
		hot  float64
	}{{"skew-2x", 2}, {"skew-5x", 5}, {"skew-10x", 10}} {
		// Base load sized so the fabric runs near capacity — topology
		// engineering matters exactly when there is little spare for
		// multipath detours.
		const base = 300.0
		demand := make([][]float64, blocks)
		for a := range demand {
			demand[a] = make([]float64, blocks)
			for b := range demand[a] {
				if a != b {
					demand[a][b] = base / 10 // background hum
				}
			}
		}
		// Hot pairs: block i ↔ i+1 for even i.
		for a := 0; a+1 < blocks; a += 2 {
			demand[a][a+1] = base * sc.hot
			demand[a+1][a] = base * sc.hot
		}
		eng, err := topoeng.Engineer(blocks, uplinks, 1, demand)
		if err != nil {
			return nil, err
		}
		tm := trafficsim.NewMatrix(blocks)
		for a := range demand {
			copy(tm.D[a], demand[a])
		}
		tu, err := topoeng.BuildTopology(uni, 100, 16)
		if err != nil {
			return nil, err
		}
		te, err := topoeng.BuildTopology(eng, 100, 16)
		if err != nil {
			return nil, err
		}
		au, err := trafficsim.KSPThroughputCtx(ctx, tu, tm, trafficsim.JellyfishK)
		if err != nil {
			return nil, err
		}
		ae, err := trafficsim.KSPThroughputCtx(ctx, te, tm, trafficsim.JellyfishK)
		if err != nil {
			return nil, err
		}
		moves, err := topoeng.Retargets(uni, eng)
		if err != nil {
			return nil, err
		}
		res.Lines = append(res.Lines, fmt.Sprintf("%-12s %9.3f %8.2fx %11d %12.1f",
			sc.name, ae, ae/au, moves, float64(topoeng.ReconfigMinutes(moves, m.OCSReconfig))))
		// Mild skew is where the uniform mesh's multipath spreading still
		// wins — engineering must pay off once the skew is real.
		if sc.hot >= 5 && ae <= au {
			return nil, fmt.Errorf("E16: engineered mesh (%v) did not beat uniform (%v) at %s", ae, au, sc.name)
		}
	}
	res.Notes = "the engineered mesh wins at every skew level and the reshape is minutes of software; through manual patch panels the same moves would repeat the §4.3 conversion every traffic shift"
	return res, nil
}

// E17ActivePanels quantifies §5.1: intelligent patch panels cut the
// fault-localization component of MTTR on the cable plant, at a capex
// premium per panel.
func E17ActivePanels(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E17",
		Title: "Active ('intelligent') patch panels: MTTR vs capex",
		Paper: "§5.1: active patch panels monitor connection status and assist remote/automated diagnosis of faults, but are more expensive than passive panels",
	}
	m := costmodel.Default()
	const cables = 4096
	const cableFITs = 2500
	res.Lines = append(res.Lines, fmt.Sprintf("%-10s %12s %12s %12s %14s %12s",
		"panels", "mttr_min", "avail%", "downtime_ph", "panel_capex$", "fix_labor$"))
	for _, v := range []struct {
		name     string
		localize units.Minutes
		premium  bool
	}{{"passive", 45, false}, {"active", 2, true}} {
		sys, err := repair.CablePlant(cables, cableFITs, v.localize, 60, 15)
		if err != nil {
			return nil, err
		}
		r, err := repair.SimulateManyCtx(ctx, sys, 8760, 16, 8, 31)
		if err != nil {
			return nil, err
		}
		panels := m.PanelsFor(cables)
		capex := float64(panels) * float64(m.PanelCost)
		if v.premium {
			capex += float64(panels) * float64(m.ActivePanelExtra)
		}
		labor := float64(m.LaborCost(units.Minutes(float64(r.Failures)) * r.MeanMTTR))
		res.Lines = append(res.Lines, fmt.Sprintf("%-10s %12.1f %12.4f %12.0f %14.0f %12.0f",
			v.name, float64(r.MeanMTTR), 100*r.Availability, r.PortDownHours, capex, labor))
	}
	res.Notes = "active panels trade a one-time capex premium for a persistent ~40-minute cut in every cable repair — the §5.1 'possibly vulnerable to software bugs' caveat is out of scope here"
	return res, nil
}

// E18RobotCrews quantifies the §2 aside — "what if we want robots to do
// the work instead?" — by executing the same deployment plan under the
// human and robot labor books.
func E18RobotCrews(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E18",
		Title: "Human vs robot deployment crews",
		Paper: "§2: can humans manipulate these parts without undue toil... what if we want robots to do the work instead?",
	}
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		return nil, err
	}
	p, plan, err := layout(ft, floorplan.DefaultHall(4, 12))
	if err != nil {
		return nil, err
	}
	human := costmodel.Default()
	robot := human.RobotCrew()
	res.Lines = append(res.Lines, fmt.Sprintf("%-8s %6s %12s %12s %10s %8s",
		"crew", "techs", "deploy_hrs", "labor_$", "reworks", "yield%"))
	for _, v := range []struct {
		name  string
		model *costmodel.Model
		techs int
	}{{"human", human, 8}, {"robot", robot, 8}, {"robot", robot, 16}} {
		dp := deploy.Build(p, plan, v.model, deploy.BuildOptions{Prebundle: true})
		s, err := deploy.ExecuteCtx(ctx, dp, v.model, p.Floor, deploy.ExecOptions{Techs: v.techs, Seed: 13})
		if err != nil {
			return nil, err
		}
		res.Lines = append(res.Lines, fmt.Sprintf("%-8s %6d %12.1f %12.0f %10d %8.2f",
			v.name, v.techs, float64(s.Makespan.Hours()), float64(s.LaborCost(v.model)),
			s.Reworks, 100*s.FirstPassYield()))
	}
	res.Notes = "robots are slower hands but cheaper hours and near-perfect yield; doubling the robot crew buys back the wall-clock — the labor-cost asymmetry is the real lever"
	return res, nil
}
