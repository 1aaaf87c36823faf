package main

import (
	"context"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"time"

	"physdep/internal/cabling"
	"physdep/internal/cli"
	"physdep/internal/core"
	"physdep/internal/costmodel"
	"physdep/internal/deploy"
	"physdep/internal/floorplan"
	"physdep/internal/par"
	"physdep/internal/placement"
	"physdep/internal/topology"
	"physdep/internal/trafficsim"
	"physdep/internal/twin"
	"physdep/internal/units"
)

// span is one timed call the benchmark made into the program. Spans of
// one operation share Op; Parent is the index of the enclosing span in
// the same list, -1 for a root. Start and End are nanoseconds since the
// tracer was created.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced and traced runs go through the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap each other (concurrent
// calls) or stick out of their parent; only the union of their overlap
// with the parent counts.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, reach int64 = 0, s.Start
		for _, v := range iv {
			if v[0] > reach {
				reach = v[0]
			}
			if v[1] > reach {
				covered += v[1] - reach
				reach = v[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// Replay roots are named "replay.<kind>"; every span under one is a call
// into a layer's public function, named after the layer.
const replayPrefix = "replay."

// replayLayers are the layer calls a decomposed replay makes, in
// core.EvaluateCtx order followed by the what-if ECMP model. Each becomes
// a per-layer "<name>_share" metric.
var replayLayers = []string{
	"topology.build", "graph.freeze", "placement.greedy", "cabling.plan",
	"deploy.build", "deploy.execute", "twin.build", "twin.check",
	"graph.stats", "graph.spectral", "graph.bisection", "costmodel.capex",
	"trafficsim.ecmp",
}

// timedLayers are the layers every workload's replay calls, so each has a
// per-call median on every workload ("<name>_ms").
var timedLayers = []string{"topology.build", "graph.freeze", "graph.stats"}

// replayMetrics turns the replay spans into per-layer metrics: each
// layer's self time as a share of all replayed time, and the median call
// time of the layers every workload reaches.
func replayMetrics(spans []span, m map[string]float64) {
	self := selfTimes(spans)
	var total int64
	bySelf := map[string]int64{}
	calls := map[string][]float64{}
	for i, s := range spans {
		if s.Parent == -1 && strings.HasPrefix(s.Name, replayPrefix) {
			total += s.dur()
		}
		bySelf[s.Name] += self[i]
		calls[s.Name] = append(calls[s.Name], float64(s.dur())/1e6)
	}
	for _, l := range replayLayers {
		m[l+"_share"] = ratio(float64(bySelf[l]), float64(total))
	}
	for _, l := range timedLayers {
		m[l+"_ms"] = median(calls[l])
	}
}

// parSpeedup runs run at par's default width, then with one worker, and
// returns the one-worker wall time over the default-width wall time.
func parSpeedup(run func() error) (float64, error) {
	t0 := time.Now()
	if err := run(); err != nil {
		return 0, err
	}
	wide := time.Since(t0)
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	t1 := time.Now()
	if err := run(); err != nil {
		return 0, err
	}
	return ratio(float64(time.Since(t1)), float64(wide)), nil
}

// pipelineOut is what one decomposed evaluation produced: the report
// fields the replay checks against the program's own report, and the
// work each layer was given.
type pipelineOut struct {
	cables, violations         int
	makespan                   units.Hours
	abstract                   core.AbstractStats
	tasks, entities, relations int
	sampled                    bool
}

// replayEvaluate makes the calls core.EvaluateCtx makes, one public
// function at a time and in its order, with a span around each under
// root. It covers the default input the daemon builds: default catalog
// and cost model, pre-bundling on, no placement annealing.
func replayEvaluate(ctx context.Context, tr *tracer, op, root int, topo *topology.Topology,
	hall floorplan.Hall, techs int, seed uint64) (pipelineOut, error) {
	var out pipelineOut
	cat, model := cabling.DefaultCatalog(), costmodel.Default()

	sp := tr.begin("placement.greedy", op, root)
	f, err := floorplan.NewFloorplan(hall)
	if err != nil {
		return out, err
	}
	p, err := placement.Greedy(topo, f, placement.Config{})
	tr.end(sp)
	if err != nil {
		return out, err
	}

	sp = tr.begin("cabling.plan", op, root)
	plan, err := cabling.PlanCables(f, cat, p.Demands(nil), cabling.Options{})
	tr.end(sp)
	if err != nil {
		return out, err
	}

	sp = tr.begin("deploy.build", op, root)
	dp := deploy.Build(p, plan, model, deploy.BuildOptions{Prebundle: true})
	tr.end(sp)
	sp = tr.begin("deploy.execute", op, root)
	sched, err := deploy.ExecuteCtx(ctx, dp, model, f, deploy.ExecOptions{Techs: techs, Seed: seed})
	tr.end(sp)
	if err != nil {
		return out, err
	}

	sp = tr.begin("twin.build", op, root)
	tm, err := twin.FromNetwork(p, plan)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.begin("twin.check", op, root)
	violations := twin.CheckAll(tm, twin.DefaultSchema(), twin.DefaultRules())
	tr.end(sp)

	st, err := replayStats(ctx, tr, op, root, topo)
	if err != nil {
		return out, err
	}
	// The spectral estimate draws from the stream before the bisection
	// estimate, as in core.
	rng := rand.New(rand.NewPCG(seed, seed^0xab5))
	sp = tr.begin("graph.spectral", op, root)
	gap := topo.SpectralGap(200, rng)
	tr.end(sp)
	sp = tr.begin("graph.bisection", op, root)
	bisect, err := topo.BisectionEstimateCtx(ctx, 4, rng)
	tr.end(sp)
	if err != nil {
		return out, err
	}

	sp = tr.begin("costmodel.capex", op, root)
	_, err = model.NetworkCapex(topo, plan, 0, 0)
	tr.end(sp)
	if err != nil {
		return out, err
	}

	out = pipelineOut{
		cables:     len(plan.Cables),
		violations: len(violations),
		makespan:   sched.Makespan.Hours(),
		abstract: core.AbstractStats{
			Switches: st.Switches, Links: st.Links, Servers: st.Servers,
			ToRDiameter: st.ToRDiam, ToRMeanHops: st.ToRMean,
			SpectralGap: gap, BisectionGb: bisect,
		},
		tasks:     len(dp.Tasks),
		entities:  tm.NumEntities(),
		relations: len(tm.Relations()),
		sampled:   !st.PathsExact,
	}
	return out, nil
}

// replayStats is the abstract path-statistics call under a span.
func replayStats(ctx context.Context, tr *tracer, op, root int, topo *topology.Topology) (topology.Stats, error) {
	sp := tr.begin("graph.stats", op, root)
	defer tr.end(sp)
	return topo.BasicStatsCtx(ctx)
}

// replayBuild builds and freezes a fabric the way the daemon's topology
// store does, one span per step.
func replayBuild(tr *tracer, op, root int, spec cli.TopoParams) (*topology.Topology, error) {
	sp := tr.begin("topology.build", op, root)
	topo, err := cli.BuildTopology(spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("graph.freeze", op, root)
	topo.Freeze()
	tr.end(sp)
	return topo, nil
}

// replayECMP is the daemon's what-if computation under ECMP: the
// undegraded baseline and the failure sweep.
func replayECMP(ctx context.Context, tr *tracer, op, root int, topo *topology.Topology,
	m trafficsim.Matrix, fracs []float64, trials int, seed uint64) (float64, []trafficsim.DegradationPoint, error) {
	sp := tr.begin("trafficsim.ecmp", op, root)
	defer tr.end(sp)
	base, err := trafficsim.ECMPThroughput(topo, m)
	if err != nil {
		return 0, nil, err
	}
	pts, err := trafficsim.FailureDegradationCtx(ctx, topo, m, fracs, trials, false, seed)
	return base, pts, err
}

// workCounts records the per-evaluation work counts of a replay.
type workCounts struct {
	cables, tasks, entities, relations []float64
	stats, sampled                     int
}

func (w *workCounts) add(o pipelineOut) {
	w.cables = append(w.cables, float64(o.cables))
	w.tasks = append(w.tasks, float64(o.tasks))
	w.entities = append(w.entities, float64(o.entities))
	w.relations = append(w.relations, float64(o.relations))
	w.addStats(o.sampled)
}

func (w *workCounts) addStats(sampled bool) {
	w.stats++
	if sampled {
		w.sampled++
	}
}

func (w *workCounts) metrics(m map[string]float64) {
	m["cabling.cables"] = median(w.cables)
	m["deploy.tasks"] = median(w.tasks)
	m["twin.entities"] = median(w.entities)
	m["twin.relations"] = median(w.relations)
	m["graph.sampled_frac"] = ratio(float64(w.sampled), float64(w.stats))
}
