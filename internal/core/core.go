// Package core is physdep's headline API: the deployability evaluator
// the paper's §5.4 calls for. Give it a topology and a hall; against the
// default media catalog and cost model it places the switches, plans and
// pre-bundles the cables, prices the build, schedules a crew, checks the
// digital twin, and returns a DeployabilityReport — time-to-deploy,
// cost-to-deploy, first-pass yield, bundleability, tray load, and the
// abstract network-goodness numbers to weigh them against.
package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"physdep/internal/cabling"
	"physdep/internal/costmodel"
	"physdep/internal/deploy"
	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/placement"
	"physdep/internal/solver"
	"physdep/internal/topology"
	"physdep/internal/twin"
	"physdep/internal/units"
)

// Input bundles everything an evaluation needs. Zero values get sensible
// defaults (see EvaluateCtx). The media catalog, the cost model and
// pre-bundling are fixed: cabling.DefaultCatalog, costmodel.Default and
// pre-built bundles on.
type Input struct {
	Topo *topology.Topology
	Hall floorplan.Hall

	// PlacementSteps > 0 runs simulated-annealing placement refinement.
	PlacementSteps int
	// PlacementRestarts > 1 runs that many independently seeded annealing
	// chains in parallel and keeps the best (placement.OptimizeRestartsCtx).
	PlacementRestarts int
	// Techs is the deployment crew size (default 8).
	Techs int
	// Seed drives placement annealing and yield rolls.
	Seed uint64
}

// DefaultInput returns an Input for the common case: 8 techs, seed 1.
func DefaultInput(t *topology.Topology, hall floorplan.Hall) Input {
	return Input{Topo: t, Hall: hall, Techs: 8, Seed: 1}
}

// AbstractStats is the "paper metrics" side of the report. The json
// tags are the daemon's wire names (internal/serve) — stable API, so
// renaming a Go field must not silently rename the HTTP surface.
type AbstractStats struct {
	Switches    int     `json:"switches"`
	Links       int     `json:"links"`
	Servers     int     `json:"servers"`
	ToRDiameter int     `json:"tor_diameter"`
	ToRMeanHops float64 `json:"tor_mean_hops"`
	SpectralGap float64 `json:"spectral_gap"`
	BisectionGb float64 `json:"bisection_gbps"`
}

// Report is the deployability scorecard. Serialized verbatim by the
// evaluation daemon's /v1/evaluate; see AbstractStats on the tags.
type Report struct {
	Name     string        `json:"name"`
	Abstract AbstractStats `json:"abstract"`

	// Physical build.
	Cabling       cabling.Summary `json:"cabling"`
	Bundleability float64         `json:"bundleability"` // fraction of cables in ≥4-cable prebuilt bundles
	CableCapex    units.USD       `json:"cable_capex_usd"`
	SwitchCapex   units.USD       `json:"switch_capex_usd"`
	TotalCapex    units.USD       `json:"total_capex_usd"`

	// Deployment execution.
	TimeToDeploy   units.Hours `json:"time_to_deploy_hours"`
	LaborCost      units.USD   `json:"labor_cost_usd"`
	WalkFraction   float64     `json:"walk_fraction"` // walking share of on-floor labor
	FirstPassYield float64     `json:"first_pass_yield"`
	Reworks        int         `json:"reworks"`
	StrandedCost   units.USD   `json:"stranded_cost_usd"` // server capital idle during deployment

	// Twin verdict.
	TwinViolations  int     `json:"twin_violations"`
	TrayPeakUtil    float64 `json:"tray_peak_util"`
	OutOfEnvelope   bool    `json:"out_of_envelope"`   // schema-level violations present
	DiversityRates  int     `json:"diversity_rates"`   // distinct line rates absorbed
	DiversityRadixs int     `json:"diversity_radixes"` // distinct radixes absorbed
}

// Caps on the evaluator's work knobs. Each sizes work up front: a crew
// slice the scheduler scans for every task, annealing steps, and one
// placement clone per restart chain. The step cap is solver's
// MaxAnnealSteps, the same bound lifecycle.PlannerConfig.Validate puts
// on AnnealSteps.
const (
	MaxTechs             = 1024
	MaxPlacementSteps    = solver.MaxAnnealSteps
	MaxPlacementRestarts = 1 << 10
)

// Caps on a failure what-if sweep (physdepd's /v1/whatif): Monte-Carlo
// trials per failure fraction, and failure fractions per sweep. Each
// trial is one throughput solve on a degraded copy of the fabric, so
// their product bounds the work one request can ask for (E19 runs 5
// trials over 5 fractions).
const (
	MaxWhatIfTrials = 1024
	MaxWhatIfFracs  = 64
)

// CheckKnobs rejects a crew size, an annealing step count or a restart
// count below zero or above its cap, with an error wrapping
// physerr.ErrOutOfRange. Zero means "use the default" for each.
func CheckKnobs(techs, steps, restarts int) error {
	if techs < 0 || techs > MaxTechs {
		return physerr.OutOfRange("core: techs must be in [0, %d], got %d", MaxTechs, techs)
	}
	if steps < 0 || steps > MaxPlacementSteps {
		return physerr.OutOfRange("core: placement steps must be in [0, %d], got %d", MaxPlacementSteps, steps)
	}
	if restarts < 0 || restarts > MaxPlacementRestarts {
		return physerr.OutOfRange("core: placement restarts must be in [0, %d], got %d", MaxPlacementRestarts, restarts)
	}
	return nil
}

// Validate rejects malformed evaluator inputs: a missing topology or a
// tuning knob outside CheckKnobs' range. The Hall itself is validated by
// floorplan.NewFloorplan inside EvaluateCtx.
func (in Input) Validate() error {
	if in.Topo == nil {
		return physerr.OutOfRange("core: nil topology")
	}
	return CheckKnobs(in.Techs, in.PlacementSteps, in.PlacementRestarts)
}

// EvaluateCtx runs the full pipeline. It is deterministic per Input.Seed.
// The context threads into every long-running phase — placement
// annealing, deployment execution, and the sampled abstract stats
// (bisection estimate, all-pairs BFS) — so a deadline interrupts an
// evaluation mid-phase, not just between phases. ctx is also checked
// before placement and between phases, so an evaluation canceled before
// it starts does no work. A canceled evaluation returns a nil report and
// an error matching physerr.ErrCanceled.
func EvaluateCtx(ctx context.Context, in Input) (*Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	if in.Techs == 0 {
		in.Techs = 8
	}
	// One span per evaluation, with the pipeline phases as children —
	// the trace/manifest view of where a deployability report's time
	// goes. Concurrent Evaluates (E1/E7 fan-out) each own a root span.
	sp := obs.StartSpan("evaluate:" + in.Topo.Name)
	defer sp.End()

	ps := sp.Child("placement")
	f, err := floorplan.NewFloorplan(in.Hall)
	if err != nil {
		return nil, err
	}
	p, err := placement.Greedy(in.Topo, f, placement.Config{})
	if err != nil {
		return nil, err
	}
	if in.PlacementSteps > 0 {
		if _, _, err := placement.OptimizeRestartsCtx(ctx, p, in.PlacementSteps, in.Seed, in.PlacementRestarts); err != nil {
			return nil, err
		}
	}
	ps.End()
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	cs := sp.Child("cabling")
	plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
	if err != nil {
		return nil, err
	}
	cs.SetAttr("cables", int64(len(plan.Cables)))
	cs.End()
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	ds := sp.Child("deploy")
	cost := costmodel.Default()
	dp := deploy.Build(p, plan, cost, deploy.BuildOptions{Prebundle: true})
	sched, err := deploy.ExecuteCtx(ctx, dp, cost, f, deploy.ExecOptions{Techs: in.Techs, Seed: in.Seed})
	if err != nil {
		return nil, err
	}
	ds.SetAttr("tasks", int64(len(dp.Tasks)))
	ds.End()
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	ts := sp.Child("twin")
	tb := ts.Child("twin.build")
	model, err := twin.FromNetwork(p, plan)
	if err != nil {
		return nil, err
	}
	tb.SetAttr("entities", int64(model.NumEntities()))
	tb.SetAttr("relations", int64(model.NumRelations()))
	tb.End()
	tc := ts.Child("twin.check")
	violations := twin.CheckAll(model, twin.DefaultSchema(), twin.DefaultRules())
	tc.End()
	ts.End()
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	rep := &Report{Name: in.Topo.Name}
	as := sp.Child("abstract")
	if err := rep.fillAbstract(ctx, in); err != nil {
		as.End()
		return nil, err
	}
	as.End()
	rep.Cabling = plan.Summarize()
	rep.Bundleability = plan.BundleabilityScore()
	rep.CableCapex = rep.Cabling.MaterialCost
	capex, err := cost.NetworkCapex(in.Topo, plan, 0, 0)
	if err != nil {
		return nil, err
	}
	rep.SwitchCapex = capex.Switches
	rep.TotalCapex = capex.Total
	rep.TimeToDeploy = sched.Makespan.Hours()
	rep.LaborCost = sched.LaborCost(cost)
	if sched.LaborMinutes > 0 {
		rep.WalkFraction = float64(sched.WalkMinutes) / float64(sched.LaborMinutes)
	}
	rep.FirstPassYield = sched.FirstPassYield()
	rep.Reworks = sched.Reworks
	rep.StrandedCost = cost.StrandedCost(in.Topo.Servers(), rep.TimeToDeploy)
	rep.TrayPeakUtil = rep.Cabling.PeakTrayUtil
	rep.TwinViolations = len(violations)
	for _, v := range violations {
		if len(v.Rule) >= 7 && v.Rule[:7] == "schema:" {
			rep.OutOfEnvelope = true
		}
	}
	rates := map[units.Gbps]bool{}
	radixes := map[int]bool{}
	for _, n := range in.Topo.Nodes {
		rates[n.Rate] = true
		radixes[n.Radix] = true
	}
	rep.DiversityRates = len(rates)
	rep.DiversityRadixs = len(radixes)
	return rep, nil
}

// checkCtx returns an error matching physerr.ErrCanceled once ctx is
// done, and nil before.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return physerr.Canceled(err)
	}
	return nil
}

func (r *Report) fillAbstract(ctx context.Context, in Input) error {
	st, err := in.Topo.BasicStatsCtx(ctx)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(in.Seed, in.Seed^0xab5))
	// SpectralGapCtx must draw from rng before BisectionEstimateCtx — that
	// is the order the struct literal evaluated them in historically, and
	// the shared stream makes the order part of the golden contract.
	gap, err := in.Topo.SpectralGapCtx(ctx, 200, rng)
	if err != nil {
		return err
	}
	bisect, err := in.Topo.BisectionEstimateCtx(ctx, 4, rng)
	if err != nil {
		return err
	}
	r.Abstract = AbstractStats{
		Switches:    st.Switches,
		Links:       st.Links,
		Servers:     st.Servers,
		ToRDiameter: st.ToRDiam,
		ToRMeanHops: st.ToRMean,
		SpectralGap: gap,
		BisectionGb: bisect,
	}
	return nil
}

// Row renders the report as one aligned table row; Header gives the
// matching column names. cmd/experiments uses these for E1.
func Header() string {
	return fmt.Sprintf("%-22s %8s %8s %7s %9s %8s %7s %9s %12s %10s %8s %7s",
		"topology", "switches", "servers", "cables", "length_m", "optical%",
		"bundle%", "capex_$", "deploy_hrs", "labor_$", "yield%", "tray%")
}

// Row formats the report under Header's columns.
func (r *Report) Row() string {
	return fmt.Sprintf("%-22s %8d %8d %7d %9.0f %8.1f %7.1f %9.0f %12.1f %10.0f %8.2f %7.1f",
		r.Name, r.Abstract.Switches, r.Abstract.Servers, r.Cabling.Cables,
		float64(r.Cabling.TotalLength), 100*r.Cabling.OpticalFrac,
		100*r.Bundleability, float64(r.TotalCapex), float64(r.TimeToDeploy),
		float64(r.LaborCost), 100*r.FirstPassYield, 100*r.TrayPeakUtil)
}
