// Package experiments regenerates every quantitative claim in the paper
// as a table (the paper itself, a position paper, has no numbered tables
// or figures — each experiment here quantifies one of its prose claims or
// case studies; see DESIGN.md §3 for the index). cmd/experiments prints
// them; bench_test.go at the repo root wraps each in a benchmark.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
	"physdep/internal/placement"
	"physdep/internal/topology"
)

// Result is one regenerated table.
type Result struct {
	ID    string
	Title string
	Paper string // the paper claim being tested, quoted or paraphrased
	Lines []string
	Notes string
}

// Render formats the result for the terminal.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "   paper: %s\n", r.Paper)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "   %s\n", l)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "   note: %s\n", r.Notes)
	}
	return b.String()
}

// Runner produces one experiment. The context cancels the experiment's
// long-running kernels mid-run (see DESIGN.md §9); runners that complete
// are byte-identical regardless of the context used.
type Runner func(ctx context.Context) (*Result, error)

// table lists every experiment in presentation order: the one source of
// both Order and the map Get reads. The ES band (E-scale: 10k–100k
// switches under the sampled path-stats estimator) follows the classic
// numbered band.
var table = []struct {
	id  string
	run Runner
}{
	{"E1", E1Deployability},
	{"E2", E2MediaCrossover},
	{"E3", E3ExpansionComplexity},
	{"E4", E4JupiterConversion},
	{"E5", E5IndirectionBenefit},
	{"E6", E6UnitOfRepair},
	{"E7", E7ThroughputVsDeploy},
	{"E8", E8Bundling},
	{"E9", E9StrandedCapital},
	{"E10", E10TwinDryRun},
	{"E11", E11Heterogeneity},
	{"E12", E12Fungibility},
	{"E13", E13Decom},
	{"E14", E14Envelope},
	{"E15", E15CapacityPlanning},
	{"E16", E16TopologyEngineering},
	{"E17", E17ActivePanels},
	{"E18", E18RobotCrews},
	{"E19", E19FailureDegradation},
	{"E20", E20DayOneVsLifetime},
	{"E21", E21HumanFactors},
	{"E22", E22SupplyChainAudit},
	{"E23", E23PlannerGrowthCost},
	{"E24", E24PlannerVsNaive},
	{"ES1", ES1SampledCalibration},
	{"ES2", ES2FleetScale},
}

// byID is the map Get reads. It is never handed to callers, so no caller
// can poison a later lookup.
var byID = registry()

// Get returns the runner for id, or nil if the ID is unknown. It is
// allocation-free, for the bench-harness path.
func Get(id string) Runner { return byID[id] }

// registry derives the ID → runner map from table.
func registry() map[string]Runner {
	m := make(map[string]Runner, len(table))
	for _, e := range table {
		m[e.id] = e.run
	}
	return m
}

// Order lists experiment IDs in presentation order.
func Order() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// Outcome is one experiment's run result, error included, so a failing
// experiment doesn't abort a concurrent batch.
type Outcome struct {
	ID  string
	Res *Result
	Err error
}

// RunManyCtx executes the given experiments concurrently (bounded by
// par.Workers()) and returns their outcomes in input order, which is how
// cmd/experiments keeps its output byte-identical to a serial run.
// Unknown IDs yield an error outcome. ctx gates experiment hand-out (par
// contract) and threads into each running experiment's kernels, so a
// deadline stops a batch mid-experiment. Experiments the batch never
// started (and ones the cancellation cut short) carry an error matching
// physerr.ErrCanceled in their outcome; experiments that finished before
// the cancellation keep their real results, so a partial manifest still
// reports the work that was done.
func RunManyCtx(ctx context.Context, ids []string) []Outcome {
	out := make([]Outcome, len(ids))
	for k, id := range ids {
		out[k].ID = id // prefilled so skipped tasks still carry their ID
	}
	// par.ForCtx reports only the lowest failing index; each outcome
	// carries its own error, so the batch error is reconstructed from the
	// outcomes below instead. A per-task error would also stop the batch
	// early, which is wrong here: a failing experiment must not keep the
	// rest from running.
	batchErr := par.ForCtx(ctx, len(ids), func(k int) error {
		run := Get(ids[k])
		if run == nil {
			out[k].Err = fmt.Errorf("unknown experiment %q", ids[k])
			return nil
		}
		sp := obs.StartSpan("experiment:" + ids[k])
		var m0 runtime.MemStats
		if sp != nil {
			runtime.ReadMemStats(&m0)
		}
		out[k].Res, out[k].Err = run(ctx)
		if sp != nil {
			// Allocation deltas are process-wide, so with concurrent
			// experiments they over-count per experiment; they are exact
			// when -workers=1. Wall time is the span duration.
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			sp.SetAttr("allocs", int64(m1.Mallocs-m0.Mallocs))
			sp.SetAttr("alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
			sp.SetAttr("workers", int64(par.Workers()))
			if out[k].Err != nil {
				sp.SetAttr("failed", 1)
			}
		}
		sp.End()
		return nil
	})
	if batchErr != nil && errors.Is(batchErr, physerr.ErrCanceled) {
		// Tasks par never handed out have no result and no error; mark
		// them canceled so callers can tell "skipped" from "ran clean".
		for k := range out {
			if out[k].Res == nil && out[k].Err == nil {
				out[k].Err = batchErr
			}
		}
	}
	return out
}

// layout places t greedily into an empty floorplan of hall and plans its
// cables against the default catalog; p.Floor is the floorplan. Twin
// construction, deploy.Build and deploy.ExecuteCtx only read a layout, so
// an experiment lays out each fabric once and reuses it across variants.
func layout(t *topology.Topology, hall floorplan.Hall) (*placement.Placement, *cabling.Plan, error) {
	f, err := floorplan.NewFloorplan(hall)
	if err != nil {
		return nil, nil, err
	}
	p, err := placement.Greedy(t, f, placement.Config{})
	if err != nil {
		return nil, nil, err
	}
	plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
	if err != nil {
		return nil, nil, err
	}
	return p, plan, nil
}
