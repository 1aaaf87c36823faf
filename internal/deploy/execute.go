package deploy

import (
	"context"
	"fmt"
	"math/rand/v2"

	"physdep/internal/costmodel"
	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/units"
)

// Schedule summarizes a simulated deployment execution.
type Schedule struct {
	Makespan        units.Minutes // wall-clock with Techs working in parallel
	LaborMinutes    units.Minutes // on-floor technician minutes, walking included
	WalkMinutes     units.Minutes // walking component of LaborMinutes
	OffFloorMinutes units.Minutes // prefab line labor
	Reworks         int           // failed validations that needed rework
	Connections     int           // validated links
	ByKind          map[TaskKind]units.Minutes
	TaskStart       []units.Minutes // per original plan task; reworks excluded
}

// FirstPassYield is the observed fraction of connections that validated
// without rework.
func (s Schedule) FirstPassYield() float64 {
	if s.Connections == 0 {
		return 1
	}
	return 1 - float64(s.Reworks)/float64(s.Connections)
}

// LaborCost prices the schedule's total labor (on-floor + prefab).
func (s Schedule) LaborCost(m *costmodel.Model) units.USD {
	return m.LaborCost(s.LaborMinutes + s.OffFloorMinutes)
}

// ExecOptions tunes execution.
type ExecOptions struct {
	Techs int    // crew size (≥ 1)
	Seed  uint64 // drives yield failures
	// YieldOverride, if non-zero, replaces the model's FirstPassYield.
	YieldOverride float64
	// MaxWorkersPerRack caps how many technicians can work at one rack
	// simultaneously (§3.2: "how many people at a time can work on one
	// rack"). 0 means unlimited.
	MaxWorkersPerRack int
}

// executeChunkTasks is how many scheduled tasks run between context
// checks in ExecuteCtx.
const executeChunkTasks = 1024

// ExecuteCtx simulates the plan with a technician crew using
// critical-path list scheduling: ready tasks are dispatched to the
// earliest-available technician, longest-remaining-path first, with
// walking time charged for relocation. Validation failures (per
// first-pass yield) insert rework + revalidate work on the fly.
//
// ctx is checked every executeChunkTasks dispatches of the scheduling
// loop. A canceled run discards the half-built schedule (its makespan and
// labor totals would describe a deployment nobody finished) and returns
// an error matching physerr.ErrCanceled.
func ExecuteCtx(ctx context.Context, p *Plan, m *costmodel.Model, f *floorplan.Floorplan, opts ExecOptions) (Schedule, error) {
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
	// downstream. Children lists first: a counting pass sizes each task's
	// list, and every list is a capped window of one array, filled in
	// task order.
	n := len(p.Tasks)
	indeg := make([]int, n)
	off := make([]int, n+1) // task d's children go to flat[off[d]:off[d+1]]
	for _, t := range p.Tasks {
		for _, d := range t.Deps {
			off[d+1]++
			indeg[t.ID]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	flat := make([]int, off[n])
	children := make([][]int, n)
	for i := range children {
		children[i] = flat[off[i]:off[i]:off[i+1]]
	}
	for _, t := range p.Tasks {
		for _, d := range t.Deps {
			children[d] = append(children[d], t.ID)
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
	rq := &readyQueue{prio: prio}
	for i := range p.Tasks {
		if len(p.Tasks[i].Deps) == 0 {
			rq.push(i)
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
	sched := Schedule{ByKind: map[TaskKind]units.Minutes{}, TaskStart: make([]units.Minutes, n)}
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
		if len(rq.ids) == 0 {
			return Schedule{}, fmt.Errorf("deploy: scheduler starved with %d tasks remaining (cycle?)", remaining)
		}
		id := rq.pop()
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
		sched.ByKind[t.Kind] += t.Minutes
		if finish > sched.Makespan {
			sched.Makespan = finish
		}
		// Release children.
		for _, c := range children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				rq.push(c)
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
				rq.push(rw)
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

// readyQueue is a max-heap of task IDs by priority. push and pop sift
// exactly as container/heap's Push and Pop do, so tasks of equal
// priority leave in the same order; it only skips boxing each ID.
type readyQueue struct {
	ids  []int
	prio []float64
}

func (q *readyQueue) less(i, j int) bool { return q.prio[q.ids[i]] > q.prio[q.ids[j]] }

func (q *readyQueue) push(id int) {
	q.ids = append(q.ids, id)
	for j := len(q.ids) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
		j = i
	}
}

func (q *readyQueue) pop() int {
	n := len(q.ids) - 1
	q.ids[0], q.ids[n] = q.ids[n], q.ids[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
		i = j
	}
	id := q.ids[n]
	q.ids = q.ids[:n]
	return id
}
