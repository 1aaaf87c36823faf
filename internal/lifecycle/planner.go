package lifecycle

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"physdep/internal/costmodel"
	"physdep/internal/graph"
	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
	"physdep/internal/solver"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// This file is the multi-step expansion planner (DESIGN.md §14): given a
// fabric and a growth schedule, it prices each action with
// DefaultActionCosts on a fixed rack grid and searches — via
// internal/solver — over rewire choices (which live links each added ToR
// splices) and work ordering (the crew's route across the floor) for a
// cheap feasible plan, and returns the plan as typed steps with
// cumulative labor, cable, and downtime. Each stage is evaluated with one
// all-pairs sweep over one fresh CSR snapshot of the working graph.

// GrowthStage is one step of a growth schedule. AddToRs installs new
// switches by live splicing (the Jellyfish/Xpander incremental
// procedure: every add breaks existing links). AddTrunks adds capacity
// without touching any live link: a parallel trunk on an existing pair,
// terminated on ports reclaimed from the server side.
type GrowthStage struct {
	AddToRs   int
	AddTrunks int
}

// floorModel places switches on a rack grid so the planner can price
// walking and cable runs. Switch id lives in rack id/ToRsPerRack; racks
// fill a Rows×Cols grid in row-major order at RackPitch spacing, and
// distances are aisle (Manhattan) distances. EndSlack is the per-end
// dressing allowance added to every cable run.
type floorModel struct {
	ToRsPerRack int
	Rows, Cols  int
	RackPitch   units.Meters
	EndSlack    units.Meters
}

// plannerFloor is the planner's rack grid: 16 racks of 4 ToRs at 3 m
// pitch — room for every schedule's final switch count.
var plannerFloor = floorModel{ToRsPerRack: 4, Rows: 4, Cols: 4, RackPitch: 3, EndSlack: 1}

func (f floorModel) racks() int          { return f.Rows * f.Cols }
func (f floorModel) rackOf(node int) int { return node / f.ToRsPerRack }

// dist is the aisle distance between two racks.
func (f floorModel) dist(r1, r2 int) units.Meters {
	dr := r1/f.Cols - r2/f.Cols
	if dr < 0 {
		dr = -dr
	}
	dc := r1%f.Cols - r2%f.Cols
	if dc < 0 {
		dc = -dc
	}
	return f.RackPitch * units.Meters(dr+dc)
}

// ActionCosts prices the planner's physical actions. Rewire covers one
// whole splice — break the live link, re-terminate both freed ends —
// priced once per the ExpansionStep contract; NewLink prices a
// connection on previously-free ports; FloorVisit is the fixed cost of
// entering a rack (open, ground, close out). RewireDowntime is the
// window the broken link is dark.
type ActionCosts struct {
	InstallToR          units.Minutes
	Rewire              units.Minutes
	NewLink             units.Minutes
	FloorVisit          units.Minutes
	RewireDowntime      units.Minutes
	WalkMetersPerMinute float64
}

// DefaultActionCosts derives planner prices from the default labor book:
// a rewire is three jumper-moves of care plus four connector ends (two
// cables re-terminated).
func DefaultActionCosts() ActionCosts {
	m := costmodel.Default()
	return ActionCosts{
		InstallToR:          m.InstallSwitch,
		Rewire:              m.JumperMove*3 + m.ConnectEnd*4,
		NewLink:             m.ConnectEnd * 2,
		FloorVisit:          5,
		RewireDowntime:      m.JumperMove * 3,
		WalkMetersPerMinute: m.WalkMetersPerMinute,
	}
}

// PlannerConfig parameterizes a planning run. AnnealSteps drives the
// work-ordering search across plannerRestarts chains (0 steps keeps the
// schedule order — the naive baseline E24 compares against). Seed fixes
// every random stream, so a config plans identically on every run and
// worker count.
type PlannerConfig struct {
	Stages      []GrowthStage
	AnnealSteps int
	Seed        uint64
}

// The planner's search budgets: parallel anneal chains for the work
// ordering, and hill-climb tries per added ToR for choosing which live
// links to splice.
const (
	plannerRestarts = 4
	rewireTries     = 64
)

// maxPlannerAdds bounds schedule size well past any experiment while
// keeping overflow arithmetic trivially safe. The ordering search is
// capped by solver.MaxAnnealSteps.
const maxPlannerAdds = 1 << 16

// Validate checks the schedule and the step count; errors wrap the
// physerr sentinels per the DESIGN.md §8 boundary contract.
func (c PlannerConfig) Validate() error {
	if len(c.Stages) == 0 {
		return physerr.OutOfRange("lifecycle: planner needs at least one growth stage")
	}
	if len(c.Stages) > maxPlannerAdds {
		return physerr.OutOfRange("lifecycle: %d growth stages exceeds the %d bound", len(c.Stages), maxPlannerAdds)
	}
	total := 0
	for i, st := range c.Stages {
		if st.AddToRs < 0 || st.AddTrunks < 0 {
			return physerr.OutOfRange("lifecycle: stage %d has negative counts (%+v)", i, st)
		}
		if st.AddToRs == 0 && st.AddTrunks == 0 {
			return physerr.OutOfRange("lifecycle: stage %d adds nothing", i)
		}
		total += st.AddToRs + st.AddTrunks
	}
	if total > maxPlannerAdds {
		return physerr.OutOfRange("lifecycle: schedule adds %d units, bound is %d", total, maxPlannerAdds)
	}
	if c.AnnealSteps < 0 || c.AnnealSteps > solver.MaxAnnealSteps {
		return physerr.OutOfRange("lifecycle: AnnealSteps must be in [0, %d], got %d", solver.MaxAnnealSteps, c.AnnealSteps)
	}
	return nil
}

// SpliceChooser selects and applies `need` live-link splices onto newID:
// it must pick live edges not incident or adjacent to newID, with
// pairwise-disjoint endpoints, satisfying the grower's legal predicate;
// for each it breaks the edge and terminates both freed ports on newID,
// returning the rewire records. The planner supplies the implementation
// (floor-aware hill-climb); growers supply family legality.
type SpliceChooser func(t *topology.Topology, newID, need int, legal func(graph.Edge) bool) ([]topology.Rewire, error)

// Grower adds one ToR to a working fabric, delegating the choice of
// which live links to splice to the planner's chooser. i is the global
// add index across the whole schedule (Xpander uses it to round-robin
// meta-nodes).
type Grower interface {
	Label() string
	AddToR(t *topology.Topology, i int, choose SpliceChooser) (int, []topology.Rewire, error)
}

// JellyfishGrower grows a Jellyfish: any live link is a legal splice.
type JellyfishGrower struct {
	Cfg topology.JellyfishConfig
}

func (g JellyfishGrower) Label() string { return "jellyfish" }

func (g JellyfishGrower) AddToR(t *topology.Topology, i int, choose SpliceChooser) (int, []topology.Rewire, error) {
	cfg := g.Cfg
	if cfg.R%2 != 0 {
		return 0, nil, physerr.OutOfRange("lifecycle: jellyfish incremental add needs even R, got %d", cfg.R)
	}
	id := t.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: cfg.K, Rate: cfg.Rate,
		ServerPorts: cfg.K - cfg.R, Pod: -1, Label: fmt.Sprintf("tor-new%d", t.N)})
	rewires, err := choose(t, id, cfg.R/2, func(graph.Edge) bool { return true })
	return id, rewires, err
}

// XpanderGrower grows an Xpander: add i lands in meta-node i mod (D+1),
// and only links between two other meta-nodes may be spliced.
type XpanderGrower struct {
	Cfg topology.XpanderConfig
}

func (g XpanderGrower) Label() string { return "xpander" }

func (g XpanderGrower) AddToR(t *topology.Topology, i int, choose SpliceChooser) (int, []topology.Rewire, error) {
	cfg := g.Cfg
	m := i % (cfg.D + 1)
	id := t.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: cfg.D + cfg.ServerPorts, Rate: cfg.Rate,
		ServerPorts: cfg.ServerPorts, Pod: m, Label: fmt.Sprintf("tor-%d-new%d", m, t.N)})
	legal := func(e graph.Edge) bool {
		return t.Nodes[e.U].Pod != m && t.Nodes[e.V].Pod != m
	}
	rewires, err := choose(t, id, cfg.D/2, legal)
	return id, rewires, err
}

// StepKind types the plan's work items.
type StepKind int

const (
	StepFloorVisit StepKind = iota // walk to and enter a rack
	StepInstallToR                 // rack, power, boot the new switch
	StepRewire                     // break one live link, re-terminate both ends
	StepNewLink                    // connect a link on previously-free ports
)

var stepKindNames = [...]string{"visit", "install", "rewire", "newlink"}

func (k StepKind) String() string {
	if int(k) < len(stepKindNames) {
		return stepKindNames[k]
	}
	return fmt.Sprintf("step(%d)", int(k))
}

// PlanStep is one typed work item in execution order.
type PlanStep struct {
	Seq      int
	Stage    int
	Kind     StepKind
	Rack     int
	Minutes  units.Minutes
	Downtime units.Minutes
	Cable    units.Meters
}

// StageReport is the fabric state after a stage plus the cumulative
// physical cost through it — the row shape E23 prints.
type StageReport struct {
	Stage    int
	Switches int
	Links    int
	MeanHops float64
	// Cumulative through this stage:
	Rewired     int
	NewLinks    int
	FloorVisits int
	Labor       units.Minutes
	Downtime    units.Minutes
	Cable       units.Meters
	Walk        units.Meters
}

// Plan is a fully-ordered expansion plan with totals.
type Plan struct {
	Fabric      string
	Steps       []PlanStep
	Stages      []StageReport
	AddedToRs   int
	Trunks      int
	Rewired     int
	NewLinks    int
	FloorVisits int
	Labor       units.Minutes
	Downtime    units.Minutes
	Cable       units.Meters
	Walk        units.Meters
}

// plannerCosts prices every planned action.
var plannerCosts = DefaultActionCosts()

// plannerSeedMix decorrelates the planner's PCG seed words ("plan").
const plannerSeedMix uint64 = 0x706c616e

// workOrder is one schedulable unit: a ToR install with its rewires, or
// one trunk. racks lists the distinct racks the crew must enter,
// ascending.
type workOrder struct {
	stage          int
	install        bool
	newID          int
	rewires        []topology.Rewire
	trunkU, trunkV int
	racks          []int
}

// PlanGrowthCtx plans cfg's schedule for the topology using the grower's
// family rules. The input topology is cloned and never mutated. ctx is
// checked on entry, inside each stage's all-pairs sweep, and inside the
// ordering anneal. A canceled run returns an error matching
// physerr.ErrCanceled and commits nothing. A run that completes is
// byte-identical for any worker count and whether obs collection is on or
// off.
func PlanGrowthCtx(ctx context.Context, t *topology.Topology, g Grower, cfg PlannerConfig) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, physerr.Canceled(err)
	}
	f := plannerFloor
	totalToRs := t.N
	for _, st := range cfg.Stages {
		totalToRs += st.AddToRs
	}
	if need := (totalToRs + f.ToRsPerRack - 1) / f.ToRsPerRack; need > f.racks() {
		return nil, physerr.Capacity("lifecycle: schedule ends at %d switches needing %d racks, floor has %d",
			totalToRs, need, f.racks())
	}
	defer obs.Time("lifecycle.plan")()

	work := t.CloneTopology()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^plannerSeedMix))
	var orders []workOrder
	stageStats := make([]StageReport, len(cfg.Stages))
	addIdx := 0
	for si, st := range cfg.Stages {
		for k := 0; k < st.AddToRs; k++ {
			chooser := newSpliceChooser(f, rng, par.SeedAt(cfg.Seed^plannerSeedMix, addIdx))
			id, rewires, err := g.AddToR(work, addIdx, chooser)
			if err != nil {
				return nil, fmt.Errorf("lifecycle: stage %d add %d: %w", si, addIdx, err)
			}
			orders = append(orders, makeToROrder(si, id, rewires, f))
			addIdx++
		}
		for k := 0; k < st.AddTrunks; k++ {
			o, err := addTrunk(work, si, rng, f)
			if err != nil {
				return nil, fmt.Errorf("lifecycle: stage %d trunk: %w", si, err)
			}
			orders = append(orders, o)
		}
		// Stage evaluation freezes the working graph once; the stage's
		// mutations above invalidated the previous snapshot.
		ps, err := work.AllPairsStatsCtx(ctx, nil)
		if err != nil {
			return nil, err
		}
		stageStats[si] = StageReport{
			Stage:    si,
			Switches: work.N,
			Links:    work.NumEdges(),
			MeanHops: ps.MeanHops,
		}
	}

	seq, err := orderWork(ctx, orders, cfg, f)
	if err != nil {
		return nil, err
	}
	plan := emitPlan(g.Label(), orders, seq, stageStats, f)
	if obs.Enabled() {
		obs.Add("lifecycle.plan.orders", int64(len(orders)))
		obs.Add("lifecycle.plan.rewires", int64(plan.Rewired))
		obs.Add("lifecycle.plan.visits", int64(plan.FloorVisits))
	}
	return plan, nil
}

// makeToROrder bundles one ToR install with its rewires and the distinct
// racks to visit: the new ToR's rack plus both endpoints of every
// broken link.
func makeToROrder(stage, newID int, rewires []topology.Rewire, f floorModel) workOrder {
	o := workOrder{stage: stage, install: true, newID: newID, rewires: rewires}
	o.racks = distinctRacks(f, append(rewireNodes(rewires), newID))
	return o
}

func rewireNodes(rewires []topology.Rewire) []int {
	out := make([]int, 0, 2*len(rewires))
	for _, rw := range rewires {
		out = append(out, rw.A, rw.B)
	}
	return out
}

// distinctRacks maps nodes, in place, to their racks, deduplicated and
// ascending — the deterministic per-order visit list.
func distinctRacks(f floorModel, nodes []int) []int {
	for i, n := range nodes {
		nodes[i] = f.rackOf(n)
	}
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// addTrunk performs one pure-addition capacity augment: a parallel trunk
// on a live pair whose endpoints can each reclaim one server-side port.
// No live link is touched and no edge is removed.
func addTrunk(t *topology.Topology, stage int, rng *rand.Rand, f floorModel) (workOrder, error) {
	var elig []int
	for _, e := range t.Edges {
		if e.U == -1 || e.U == e.V {
			continue
		}
		if t.Nodes[e.U].ServerPorts < 1 || t.Nodes[e.V].ServerPorts < 1 {
			continue
		}
		elig = append(elig, e.ID)
	}
	if len(elig) == 0 {
		return workOrder{}, physerr.Infeasible("no link pair has reclaimable ports for a trunk")
	}
	e := t.Edges[elig[rng.IntN(len(elig))]]
	t.Nodes[e.U].ServerPorts--
	t.Nodes[e.V].ServerPorts--
	t.Link(e.U, e.V)
	o := workOrder{stage: stage, trunkU: e.U, trunkV: e.V}
	o.racks = distinctRacks(f, []int{e.U, e.V})
	return o, nil
}

// spliceState is the Annealable over one add's splice choice: swap a
// chosen candidate edge for another while keeping endpoint disjointness,
// minimizing the floor cost of the visit set. Used with solver.HillClimb
// under the per-add rewireTries budget.
type spliceState struct {
	t       *topology.Topology
	cand    []int
	chosen  []int
	newRack int
	floor   floorModel
	cur     float64
}

// cost prices a chosen set's floor work: one visit per distinct rack
// (endpoints plus the new ToR's rack) and the walk out from the new rack
// to each. Accumulation order follows the chosen slice, so the float sum
// is deterministic.
func (s *spliceState) cost(chosen []int) float64 {
	seen := map[int]bool{s.newRack: true}
	visits := 1
	walk := units.Meters(0)
	for _, id := range chosen {
		e := s.t.Edges[id]
		for _, n := range [2]int{e.U, e.V} {
			r := s.floor.rackOf(n)
			if !seen[r] {
				seen[r] = true
				visits++
				walk += s.floor.dist(s.newRack, r)
			}
		}
	}
	return floorMinutes(visits, walk)
}

// RouteMinutes prices the plan's crew route: FloorVisits rack entries
// plus Walk metres of walking, on the planner's own rule.
func (p *Plan) RouteMinutes() float64 { return floorMinutes(p.FloorVisits, p.Walk) }

// floorMinutes prices floor overhead: a fixed cost per rack entered plus
// the walking time.
func floorMinutes(visits int, walk units.Meters) float64 {
	return float64(visits)*float64(plannerCosts.FloorVisit) + float64(walk)/plannerCosts.WalkMetersPerMinute
}

func (s *spliceState) Propose(rng *rand.Rand) (float64, func(), bool) {
	if len(s.chosen) == 0 || len(s.cand) == 0 {
		return 0, nil, false
	}
	i := rng.IntN(len(s.chosen))
	repl := s.cand[rng.IntN(len(s.cand))]
	e := s.t.Edges[repl]
	for k, id := range s.chosen {
		if id == repl {
			return 0, nil, false
		}
		if k == i {
			continue
		}
		o := s.t.Edges[id]
		if o.U == e.U || o.U == e.V || o.V == e.U || o.V == e.V {
			return 0, nil, false
		}
	}
	next := append([]int(nil), s.chosen...)
	next[i] = repl
	delta := s.cost(next) - s.cur
	return delta, func() {
		s.chosen[i] = repl
		s.cur += delta
	}, true
}

// newSpliceChooser builds the planner's SpliceChooser: chooseSplices
// picks the edges, then the splices are applied.
func newSpliceChooser(f floorModel, rng *rand.Rand, climbSeed uint64) SpliceChooser {
	return func(t *topology.Topology, newID, need int, legal func(graph.Edge) bool) ([]topology.Rewire, error) {
		st, err := chooseSplices(f, rng, climbSeed, t, newID, need, legal)
		if err != nil {
			return nil, err
		}
		return applySplices(t, newID, st.chosen), nil
	}
}

// chooseSplices enumerates the legal candidate edges for newID, takes a
// random endpoint-disjoint set of need, and hill-climbs it toward fewer
// and closer racks. It returns the search state (candidates and final
// choice) without touching t. rng drives the initial pick (shared
// planner stream); the hill-climb runs on its own per-add seed so it
// cannot shift later adds' streams.
func chooseSplices(f floorModel, rng *rand.Rand, climbSeed uint64, t *topology.Topology, newID, need int, legal func(graph.Edge) bool) (*spliceState, error) {
	var cand []int
	for _, e := range t.Edges {
		if e.U == -1 || e.U == newID || e.V == newID || e.U == e.V {
			continue
		}
		if t.HasEdgeBetween(newID, e.U) || t.HasEdgeBetween(newID, e.V) {
			continue
		}
		if !legal(e) {
			continue
		}
		cand = append(cand, e.ID)
	}
	order := append([]int(nil), cand...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	used := map[int]bool{}
	var chosen []int
	for _, id := range order {
		e := t.Edges[id]
		if used[e.U] || used[e.V] {
			continue
		}
		chosen = append(chosen, id)
		used[e.U], used[e.V] = true, true
		if len(chosen) == need {
			break
		}
	}
	if len(chosen) < need {
		return nil, physerr.Infeasible("only %d of %d disjoint splice candidates for new ToR %d",
			len(chosen), need, newID)
	}
	st := &spliceState{t: t, cand: cand, chosen: chosen, newRack: f.rackOf(newID), floor: f}
	st.cur = st.cost(chosen)
	solver.HillClimb(st, rewireTries, climbSeed)
	return st, nil
}

// applySplices breaks each chosen edge and terminates both freed ports
// on newID, returning the rewire records in choice order.
func applySplices(t *topology.Topology, newID int, chosen []int) []topology.Rewire {
	rewires := make([]topology.Rewire, 0, len(chosen))
	for _, id := range chosen {
		rewires = append(rewires, t.Splice(newID, id))
	}
	return rewires
}

// orderState is the Annealable over work ordering: swap two orders
// within the same stage (stages are hard sequence points — stage k's
// capacity must exist before stage k+1's evaluation), minimizing the
// crew's route cost.
type orderState struct {
	orders []workOrder
	seq    []int
	// spans are the [lo, hi) seq ranges of the stages with ≥ 2 orders,
	// ascending; shared by every chain.
	spans [][2]int
	floor floorModel
	cur   float64
}

func (s *orderState) Propose(rng *rand.Rand) (float64, func(), bool) {
	if len(s.spans) == 0 {
		return 0, nil, false
	}
	span := s.spans[rng.IntN(len(s.spans))]
	n := span[1] - span[0]
	i, j := span[0]+rng.IntN(n), span[0]+rng.IntN(n)
	if i == j {
		return 0, nil, false
	}
	s.seq[i], s.seq[j] = s.seq[j], s.seq[i]
	cost := routeCost(s.orders, s.seq, s.floor)
	s.seq[i], s.seq[j] = s.seq[j], s.seq[i]
	delta := cost - s.cur
	return delta, func() {
		s.seq[i], s.seq[j] = s.seq[j], s.seq[i]
		s.cur = cost
	}, true
}

// crew is the work crew on the floor: at is the rack aisle it stands
// in, last the rack it last entered. A route starts from crew{last: -1},
// at rack 0's aisle with no rack entered yet.
type crew struct{ at, last int }

// enter walks the crew into rack r and reports the metres walked. A rack
// entered back-to-back is entered once: entering last again walks
// nothing and reports entered false.
func (c *crew) enter(f floorModel, r int) (walked units.Meters, entered bool) {
	if r == c.last {
		return 0, false
	}
	walked = f.dist(c.at, r)
	c.at, c.last = r, r
	return walked, true
}

// routeCost prices a work sequence's floor overhead: the crew enters
// each order's racks in sequence. Minutes = visits·FloorVisit +
// walk/pace.
func routeCost(orders []workOrder, seq []int, f floorModel) float64 {
	c := crew{last: -1}
	visits, walk := 0, units.Meters(0)
	for _, oi := range seq {
		for _, r := range orders[oi].racks {
			if d, ok := c.enter(f, r); ok {
				visits++
				walk += d
			}
		}
	}
	return floorMinutes(visits, walk)
}

// orderWork picks the execution sequence: schedule order when
// AnnealSteps is 0, otherwise annealed within stages across
// plannerRestarts parallel chains (deterministic winner), keeping the
// identity order if the search somehow ends worse.
func orderWork(ctx context.Context, orders []workOrder, cfg PlannerConfig, f floorModel) ([]int, error) {
	seq := make([]int, len(orders))
	for i := range seq {
		seq[i] = i
	}
	if cfg.AnnealSteps <= 0 || len(orders) < 2 {
		return seq, nil
	}
	identity := routeCost(orders, seq, f)
	// Orders are made stage by stage, so each stage is one contiguous run
	// of the identity sequence, and the anneal keeps it so.
	var spans [][2]int
	for lo := 0; lo < len(orders); {
		hi := lo + 1
		for hi < len(orders) && orders[hi].stage == orders[lo].stage {
			hi++
		}
		if hi-lo >= 2 {
			spans = append(spans, [2]int{lo, hi})
		}
		lo = hi
	}
	states := make([]solver.Annealable, plannerRestarts)
	chainStates := make([]*orderState, plannerRestarts)
	for c := range states {
		chainStates[c] = &orderState{orders: orders, seq: slices.Clone(seq), spans: spans, floor: f, cur: identity}
		states[c] = chainStates[c]
	}
	acfg := solver.AnnealConfig{Steps: cfg.AnnealSteps, T0: identity / 10, T1: 0.01, Seed: cfg.Seed ^ 0x6f726472}
	if acfg.T0 <= 0 {
		acfg.T0 = 1
	}
	best, _, err := solver.AnnealRestartsCtx(ctx, states, acfg, func(c int) float64 {
		return chainStates[c].cur
	})
	if err != nil {
		return nil, err
	}
	if chainStates[best].cur < identity {
		return chainStates[best].seq, nil
	}
	return seq, nil
}

// emitPlan walks the final sequence once, emitting typed steps and
// running totals. The anneal only swaps within a stage, so each stage is
// one contiguous run of the sequence, and its cumulative row is the
// plan's running totals after its last order: each order leaves its
// stage's row at the totals so far, and the stage's last order leaves it
// final.
func emitPlan(fabric string, orders []workOrder, seq []int, stageStats []StageReport, f floorModel) *Plan {
	p := &Plan{Fabric: fabric, Stages: stageStats}
	c := plannerCosts
	addStep := func(s PlanStep) {
		s.Seq = len(p.Steps)
		p.Steps = append(p.Steps, s)
		p.Labor += s.Minutes
		p.Downtime += s.Downtime
		p.Cable += s.Cable
	}
	cr := crew{last: -1}
	for _, oi := range seq {
		o := orders[oi]
		for _, r := range o.racks {
			walked, ok := cr.enter(f, r)
			if !ok {
				continue
			}
			p.FloorVisits++
			p.Walk += walked
			addStep(PlanStep{Stage: o.stage, Kind: StepFloorVisit, Rack: r,
				Minutes: c.FloorVisit + units.Minutes(float64(walked)/c.WalkMetersPerMinute)})
		}
		if o.install {
			homeRack := f.rackOf(o.newID)
			p.AddedToRs++
			addStep(PlanStep{Stage: o.stage, Kind: StepInstallToR, Rack: homeRack, Minutes: c.InstallToR})
			for _, rw := range o.rewires {
				p.Rewired++
				cable := f.dist(f.rackOf(rw.A), homeRack) + f.dist(f.rackOf(rw.B), homeRack) + 4*f.EndSlack
				addStep(PlanStep{Stage: o.stage, Kind: StepRewire, Rack: homeRack,
					Minutes: c.Rewire, Downtime: c.RewireDowntime, Cable: cable})
			}
		} else {
			p.Trunks++
			p.NewLinks++
			cable := f.dist(f.rackOf(o.trunkU), f.rackOf(o.trunkV)) + 2*f.EndSlack
			addStep(PlanStep{Stage: o.stage, Kind: StepNewLink, Rack: f.rackOf(o.trunkU),
				Minutes: c.NewLink, Cable: cable})
		}
		st := &p.Stages[o.stage]
		st.Rewired, st.NewLinks, st.FloorVisits = p.Rewired, p.NewLinks, p.FloorVisits
		st.Labor, st.Downtime, st.Cable, st.Walk = p.Labor, p.Downtime, p.Cable, p.Walk
	}
	return p
}
