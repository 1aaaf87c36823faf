package deploy

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand/v2"

	"physdep/internal/cabling"
	"physdep/internal/costmodel"
	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/placement"
	"physdep/internal/units"
)

// refBuild is the Build that predates the shared deps array, kept
// verbatim as the differential test's reference: one Deps slice per task
// and a task list grown by appends.
func refBuild(p *placement.Placement, plan *cabling.Plan, m *costmodel.Model, opts BuildOptions) *Plan {
	dp := &Plan{}
	// Rack installs.
	rackTask := make([]int, p.Floor.NumRacks()) // floor slot -> task ID
	for r := 0; r < p.NumRacks(); r++ {
		slot := p.SlotOfRack[r]
		rackTask[slot] = dp.addTask(Task{Kind: TaskInstallRack, Minutes: m.InstallRack,
			Loc: p.Floor.LocOf(slot), CableIdx: -1})
	}
	// Switch installs depend on their rack.
	switchTask := make([]int, p.Topo.N)
	for sw := 0; sw < p.Topo.N; sw++ {
		loc := p.LocOfSwitch(sw)
		switchTask[sw] = dp.addTask(Task{Kind: TaskInstallSwitch, Minutes: m.InstallSwitch,
			Loc: loc, Deps: []int{rackTask[p.Floor.RackIndex(loc)]}, CableIdx: -1})
	}
	// Bundle pulls; then per-cable connect + validate. Without
	// prebundling, each of a bundle's cables is pulled on its own.
	for _, b := range plan.Bundles {
		step := len(b.CableIdx)
		if !opts.Prebundle {
			step = 1
		}
		for lo := 0; lo < len(b.CableIdx); lo += step {
			group := b.CableIdx[lo : lo+step]
			first := plan.Cables[group[0]]
			srcLoc, dstLoc := first.Route.From, first.Route.To
			var mins units.Minutes
			if len(group) > 1 {
				mins = m.PullBundleFixed + units.Minutes(float64(m.PullBundlePerMeter)*float64(first.Route.Length))
				dp.OffFloorMinutes += units.Minutes(float64(m.BundlePrefabPerCbl) * float64(len(group)))
			} else {
				mins = m.PullCableFixed + units.Minutes(float64(m.PullCablePerMeter)*float64(first.Route.Length))
			}
			pullID := dp.addTask(Task{Kind: TaskPullBundle, Minutes: mins, Loc: srcLoc,
				Deps:     []int{rackTask[p.Floor.RackIndex(srcLoc)], rackTask[p.Floor.RackIndex(dstLoc)]},
				CableIdx: -1})
			for _, ci := range group {
				c := plan.Cables[ci]
				e := p.Topo.Edges[c.Demand.ID]
				connID := dp.addTask(Task{Kind: TaskConnect, Minutes: 2 * m.ConnectEnd,
					Loc:      c.Route.From,
					Deps:     []int{pullID, switchTask[e.U], switchTask[e.V]},
					CableIdx: ci})
				dp.addTask(Task{Kind: TaskValidate, Minutes: m.ValidateLink,
					Loc: c.Route.From, Deps: []int{connID}, CableIdx: ci})
			}
		}
	}
	return dp
}

// refExecuteCtx is the ExecuteCtx that predates the children windows and
// the typed ready queue, kept verbatim as the differential test's
// reference, less the per-kind minutes that Schedule no longer has: one
// children slice per task, a copy of the task list that reworks extend,
// and a container/heap queue that boxes every task ID.
func refExecuteCtx(ctx context.Context, p *Plan, m *costmodel.Model, f *floorplan.Floorplan, opts ExecOptions) (Schedule, error) {
	defer obs.Time("deploy.execute")()
	if err := p.Validate(); err != nil {
		return Schedule{}, err
	}
	if opts.Techs < 1 {
		return Schedule{}, physerr.OutOfRange("deploy: need at least 1 technician, got %d", opts.Techs)
	}
	yield := m.FirstPassYield
	if opts.YieldOverride > 0 {
		yield = opts.YieldOverride
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xdeb107))

	// Critical-path priority: longest path (sum of minutes) from each task
	// downstream. Children lists first.
	n := len(p.Tasks)
	children := make([][]int, n)
	indeg := make([]int, n)
	for _, t := range p.Tasks {
		for _, d := range t.Deps {
			children[d] = append(children[d], t.ID)
			indeg[t.ID]++
		}
	}
	prio := make([]float64, n)
	for i := n - 1; i >= 0; i-- { // IDs topologically ordered by construction
		longest := 0.0
		for _, c := range children[i] {
			if prio[c] > longest {
				longest = prio[c]
			}
		}
		prio[i] = longest + float64(p.Tasks[i].Minutes)
	}

	// Ready queue ordered by priority desc.
	rq := &refReadyQueue{prio: prio}
	for i := range p.Tasks {
		if len(p.Tasks[i].Deps) == 0 {
			heap.Push(rq, i)
		}
	}

	type tech struct {
		free units.Minutes
		loc  floorplan.RackLoc
	}
	techs := make([]tech, opts.Techs)
	// Per-rack work slots: with a worker cap, each rack behaves like a
	// small crew of its own — a task must claim the earliest-free slot at
	// its rack in addition to a technician.
	var rackSlots map[floorplan.RackLoc][]units.Minutes
	if opts.MaxWorkersPerRack > 0 {
		rackSlots = map[floorplan.RackLoc][]units.Minutes{}
	}
	sched := Schedule{TaskStart: make([]units.Minutes, n)}
	done := make([]units.Minutes, n) // finish time per task
	remaining := n

	// Dynamic tasks (rework/revalidate) extend these slices.
	tasks := append([]Task(nil), p.Tasks...)
	extend := func(t Task) int {
		t.ID = len(tasks)
		tasks = append(tasks, t)
		children = append(children, nil)
		done = append(done, 0)
		prio = append(prio, float64(t.Minutes))
		rq.prio = prio
		remaining++
		return t.ID
	}

	cancellable := ctx.Done() != nil
	for dispatched := 0; remaining > 0; dispatched++ {
		if cancellable && dispatched%executeChunkTasks == 0 {
			if err := ctx.Err(); err != nil {
				return Schedule{}, physerr.Canceled(err)
			}
		}
		if rq.Len() == 0 {
			return Schedule{}, fmt.Errorf("deploy: scheduler starved with %d tasks remaining (cycle?)", remaining)
		}
		id := heap.Pop(rq).(int)
		t := tasks[id]
		// Earliest start: max(dep finishes); assign to tech who can start
		// it soonest including walking.
		var depReady units.Minutes
		for _, d := range t.Deps {
			if done[d] > depReady {
				depReady = done[d]
			}
		}
		// Rack-slot gate: the earliest time a worker may stand at this
		// rack.
		rackReady := units.Minutes(0)
		slotIdx := -1
		if rackSlots != nil {
			slots := rackSlots[t.Loc]
			if len(slots) < opts.MaxWorkersPerRack {
				slots = append(slots, 0)
				rackSlots[t.Loc] = slots
			}
			slotIdx = 0
			for i := 1; i < len(slots); i++ {
				if slots[i] < slots[slotIdx] {
					slotIdx = i
				}
			}
			rackReady = slots[slotIdx]
		}
		best, bestStart, bestWalk := -1, units.Minutes(0), units.Minutes(0)
		for i, tc := range techs {
			walk := units.Minutes(float64(f.WalkingDistance(tc.loc, t.Loc)) / m.WalkMetersPerMinute)
			start := tc.free + walk
			if start < depReady {
				start = depReady
			}
			if start < rackReady {
				start = rackReady
			}
			if best == -1 || start < bestStart {
				best, bestStart, bestWalk = i, start, walk
			}
		}
		finish := bestStart + t.Minutes
		techs[best].free = finish
		techs[best].loc = t.Loc
		if slotIdx >= 0 {
			rackSlots[t.Loc][slotIdx] = finish
		}
		done[id] = finish
		if id < n {
			sched.TaskStart[id] = bestStart
		}
		remaining--
		sched.LaborMinutes += t.Minutes + bestWalk
		sched.WalkMinutes += bestWalk
		if finish > sched.Makespan {
			sched.Makespan = finish
		}
		// Release children.
		for _, c := range children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				heap.Push(rq, c)
			}
		}
		// Yield roll on first-pass validation; revalidations always pass.
		if t.Kind == TaskValidate && !t.Revalidate {
			sched.Connections++
			if rng.Float64() > yield {
				sched.Reworks++
				rw := extend(Task{Kind: TaskRework, Minutes: m.ReworkFailedConnect,
					Loc: t.Loc, Deps: []int{id}, CableIdx: t.CableIdx})
				rv := extend(Task{Kind: TaskValidate, Minutes: m.ValidateLink,
					Loc: t.Loc, Deps: []int{rw}, CableIdx: t.CableIdx, Revalidate: true})
				// The rework is ready immediately (its dep just finished).
				indeg = append(indeg, 0, 1) // rw ready; rv waits on rw
				children[rw] = append(children[rw], rv)
				heap.Push(rq, rw)
			}
		}
	}
	sched.OffFloorMinutes = p.OffFloorMinutes
	if obs.Enabled() {
		obs.Add("deploy.tasks", int64(len(tasks)))
		obs.Add("deploy.techs", int64(opts.Techs))
		obs.Add("deploy.connections", int64(sched.Connections))
		obs.Add("deploy.reworks", int64(sched.Reworks))
		obs.Add("deploy.walk_min", int64(sched.WalkMinutes))
		obs.Add("deploy.makespan_min", int64(sched.Makespan))
	}
	return sched, nil
}

// refReadyQueue is the container/heap ready queue refExecuteCtx uses: a
// max-heap of task IDs by priority.
type refReadyQueue struct {
	ids  []int
	prio []float64
}

func (q *refReadyQueue) Len() int           { return len(q.ids) }
func (q *refReadyQueue) Less(i, j int) bool { return q.prio[q.ids[i]] > q.prio[q.ids[j]] }
func (q *refReadyQueue) Swap(i, j int)      { q.ids[i], q.ids[j] = q.ids[j], q.ids[i] }
func (q *refReadyQueue) Push(x any)         { q.ids = append(q.ids, x.(int)) }
func (q *refReadyQueue) Pop() any {
	old := q.ids
	n := len(old)
	x := old[n-1]
	q.ids = old[:n-1]
	return x
}
