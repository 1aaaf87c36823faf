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

// Schedule summarizes a simulated deployment execution: crew time and
// labor totals, yield counts, and the start time of each plan task.
// Reworks and their revalidates count toward the totals but have no
// start times of their own.
type Schedule struct {
	Makespan        units.Minutes   // wall-clock with Techs working in parallel
	LaborMinutes    units.Minutes   // on-floor technician minutes, walking included
	WalkMinutes     units.Minutes   // walking component of LaborMinutes
	OffFloorMinutes units.Minutes   // prefab line labor
	Reworks         int             // failed validations that needed rework
	Connections     int             // validated links
	TaskStart       []units.Minutes // per plan task; reworks excluded
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
// The plan is read in place and never copied. Its tasks keep their IDs
// 0..n-1; the k-th rework gets ID n+2k and its revalidate n+2k+1, and
// both live in a side list, not in the per-task arrays.
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

	// Children in CSR form: task d's children are flat[off[d]:off[d+1]],
	// in task order. The counting pass tallies d's children at off[d+2],
	// so that after the prefix sums off[d+1] is where d's list starts;
	// the fill pass advances it to where the list ends, which is also
	// where d+1's starts.
	n := len(p.Tasks)
	indeg := make([]int32, n)
	off := make([]int32, n+2)
	roots := 0
	for i := range p.Tasks {
		t := &p.Tasks[i]
		if len(t.Deps) == 0 {
			roots++
		}
		for _, d := range t.Deps {
			off[d+2]++
			indeg[t.ID]++
		}
	}
	for i := 2; i <= n+1; i++ {
		off[i] += off[i-1]
	}
	flat := make([]int32, off[n+1])
	for i := range p.Tasks {
		t := &p.Tasks[i]
		for _, d := range t.Deps {
			flat[off[d+1]] = int32(t.ID)
			off[d+1]++
		}
	}
	// Critical-path priority: longest path (sum of minutes) from each task
	// downstream.
	prio := make([]float64, n)
	for i := n - 1; i >= 0; i-- { // IDs topologically ordered by construction
		longest := 0.0
		for _, c := range flat[off[i]:off[i+1]] {
			if prio[c] > longest {
				longest = prio[c]
			}
		}
		prio[i] = longest + float64(p.Tasks[i].Minutes)
	}

	// Ready queue ordered by priority desc, sized for the tasks ready at
	// the start.
	rq := readyQueue{items: make([]readyItem, 0, roots)}
	for i := range p.Tasks {
		if len(p.Tasks[i].Deps) == 0 {
			rq.push(prio[i], i)
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
	done := make([]units.Minutes, n) // finish time per plan task
	// reworks[k] is the k-th failed validation: the plan task that failed
	// and the finish time of its rework, which its revalidate waits on.
	type rework struct {
		validate int
		finish   units.Minutes
	}
	var reworks []rework
	remaining := n

	cancellable := ctx.Done() != nil
	for dispatched := 0; remaining > 0; dispatched++ {
		if cancellable && dispatched%executeChunkTasks == 0 {
			if err := ctx.Err(); err != nil {
				return Schedule{}, physerr.Canceled(err)
			}
		}
		if len(rq.items) == 0 {
			return Schedule{}, fmt.Errorf("deploy: scheduler starved with %d tasks remaining (cycle?)", remaining)
		}
		id := rq.pop()
		// Earliest start: max(dep finishes); assign to tech who can start
		// it soonest including walking.
		var (
			mins     units.Minutes
			loc      floorplan.RackLoc
			depReady units.Minutes
		)
		if id < n {
			t := &p.Tasks[id]
			mins, loc = t.Minutes, t.Loc
			for _, d := range t.Deps {
				if done[d] > depReady {
					depReady = done[d]
				}
			}
		} else {
			rw := &reworks[(id-n)/2]
			loc = p.Tasks[rw.validate].Loc
			if (id-n)%2 == 0 { // the rework waits on its failed validation
				mins, depReady = m.ReworkFailedConnect, done[rw.validate]
			} else { // the revalidate waits on its rework
				mins, depReady = m.ValidateLink, rw.finish
			}
		}
		// Rack-slot gate: the earliest time a worker may stand at this
		// rack.
		rackReady := units.Minutes(0)
		slotIdx := -1
		if rackSlots != nil {
			slots := rackSlots[loc]
			if len(slots) < opts.MaxWorkersPerRack {
				slots = append(slots, 0)
				rackSlots[loc] = slots
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
			walk := units.Minutes(float64(f.WalkingDistance(tc.loc, loc)) / m.WalkMetersPerMinute)
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
		finish := bestStart + mins
		techs[best].free = finish
		techs[best].loc = loc
		if slotIdx >= 0 {
			rackSlots[loc][slotIdx] = finish
		}
		remaining--
		sched.LaborMinutes += mins + bestWalk
		sched.WalkMinutes += bestWalk
		if finish > sched.Makespan {
			sched.Makespan = finish
		}
		if id >= n {
			// A finished rework releases its revalidate; a revalidate
			// always passes and releases nothing.
			if (id-n)%2 == 0 {
				reworks[(id-n)/2].finish = finish
				rq.push(float64(m.ValidateLink), id+1)
			}
			continue
		}
		done[id] = finish
		sched.TaskStart[id] = bestStart
		// Release children.
		for _, c := range flat[off[id]:off[id+1]] {
			indeg[c]--
			if indeg[c] == 0 {
				rq.push(prio[c], int(c))
			}
		}
		// Yield roll on first-pass validation; revalidations always pass.
		if t := &p.Tasks[id]; t.Kind == TaskValidate && !t.Revalidate {
			sched.Connections++
			if rng.Float64() > yield {
				sched.Reworks++
				// The rework is ready immediately (its dep just finished).
				rq.push(float64(m.ReworkFailedConnect), n+2*len(reworks))
				reworks = append(reworks, rework{validate: id})
				remaining += 2
			}
		}
	}
	sched.OffFloorMinutes = p.OffFloorMinutes
	if obs.Enabled() {
		obs.Add("deploy.tasks", int64(n+2*len(reworks)))
		obs.Add("deploy.techs", int64(opts.Techs))
		obs.Add("deploy.connections", int64(sched.Connections))
		obs.Add("deploy.reworks", int64(sched.Reworks))
		obs.Add("deploy.walk_min", int64(sched.WalkMinutes))
		obs.Add("deploy.makespan_min", int64(sched.Makespan))
	}
	return sched, nil
}

// readyQueue is a max-heap of (priority, task ID) pairs. push and pop
// sift exactly as container/heap's Push and Pop do, so tasks of equal
// priority leave in the same order; it only skips boxing each ID.
type readyQueue struct {
	items []readyItem
}

type readyItem struct {
	prio float64
	id   int
}

func (q *readyQueue) less(i, j int) bool { return q.items[i].prio > q.items[j].prio }

func (q *readyQueue) push(prio float64, id int) {
	q.items = append(q.items, readyItem{prio, id})
	for j := len(q.items) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		j = i
	}
}

func (q *readyQueue) pop() int {
	n := len(q.items) - 1
	q.items[0], q.items[n] = q.items[n], q.items[0]
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
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
	id := q.items[n].id
	q.items = q.items[:n]
	return id
}
