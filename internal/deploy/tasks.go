// Package deploy turns a placed, cable-planned network into a physical
// work plan — the "automated planning of operator actions" the paper's
// §2.3 describes — and simulates its execution by a technician crew:
// precedence-respecting list scheduling, walking time between racks,
// and first-pass-yield rework injection. Its outputs are the paper's
// internal metrics: time-to-deploy (makespan), labor hours, and
// first-pass yield.
package deploy

import (
	"fmt"

	"physdep/internal/cabling"
	"physdep/internal/costmodel"
	"physdep/internal/floorplan"
	"physdep/internal/placement"
	"physdep/internal/units"
)

// TaskKind classifies physical work items.
type TaskKind int

const (
	TaskInstallRack TaskKind = iota
	TaskInstallSwitch
	TaskPullBundle // also used for individual pulls (singleton bundles)
	TaskConnect    // seat both ends of one cable
	TaskValidate   // automated link check, tech in attendance
	TaskRework     // diagnose and fix a failed link
	TaskJumperMove // patch-panel jumper relocation
)

var taskKindNames = [...]string{
	"install-rack", "install-switch", "pull-bundle", "connect",
	"validate", "rework", "jumper-move",
}

func (k TaskKind) String() string {
	if int(k) < len(taskKindNames) {
		return taskKindNames[k]
	}
	return fmt.Sprintf("task(%d)", int(k))
}

// Task is one unit of technician work at one location.
type Task struct {
	ID      int
	Kind    TaskKind
	Minutes units.Minutes
	Loc     floorplan.RackLoc
	Deps    []int
	// CableIdx links connect/validate/rework tasks back to the cabling
	// plan (-1 otherwise).
	CableIdx int
	// Revalidate marks a post-rework validation, which always passes
	// (second-pass yield ≈ 1) and doesn't count toward first-pass stats.
	Revalidate bool
}

// Plan is a deployment work plan: a DAG of tasks plus off-floor prefab
// labor that runs in parallel with site work.
type Plan struct {
	Tasks           []Task
	OffFloorMinutes units.Minutes // bundle prefab line (not on the critical path)
}

func (p *Plan) addTask(t Task) int {
	t.ID = len(p.Tasks)
	p.Tasks = append(p.Tasks, t)
	return t.ID
}

// BuildOptions tunes plan construction.
type BuildOptions struct {
	// Prebundle enables pre-built bundles: multi-cable bundles are pulled
	// as one unit with prefab labor charged off-floor. When false, every
	// cable is pulled individually (the Popa-era assumption Singh et al.
	// showed is ~40% more expensive).
	Prebundle bool
}

// Build constructs the deployment plan for a placed topology and its
// cabling plan: install racks, install switches, pull bundles/cables,
// connect, validate.
//
// The task list and every task's Deps are sized up front: each Deps is a
// capped window of one array holding a switch's rack, a pull's two racks,
// a connect's pull and two switches, and a validate's connect.
func Build(p *placement.Placement, plan *cabling.Plan, m *costmodel.Model, opts BuildOptions) *Plan {
	pulls := len(plan.Bundles)
	if !opts.Prebundle {
		pulls = len(plan.Cables)
	}
	cables := len(plan.Cables)
	dp := &Plan{Tasks: make([]Task, 0, p.NumRacks()+p.Topo.N+pulls+2*cables)}
	deps := make([]int, 0, p.Topo.N+2*pulls+4*cables)
	window := func(ds ...int) []int {
		lo := len(deps)
		deps = append(deps, ds...)
		return deps[lo:len(deps):len(deps)]
	}
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
			Loc: loc, Deps: window(rackTask[p.Floor.RackIndex(loc)]), CableIdx: -1})
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
				Deps:     window(rackTask[p.Floor.RackIndex(srcLoc)], rackTask[p.Floor.RackIndex(dstLoc)]),
				CableIdx: -1})
			for _, ci := range group {
				c := plan.Cables[ci]
				e := p.Topo.Edges[c.Demand.ID]
				connID := dp.addTask(Task{Kind: TaskConnect, Minutes: 2 * m.ConnectEnd,
					Loc:      c.Route.From,
					Deps:     window(pullID, switchTask[e.U], switchTask[e.V]),
					CableIdx: ci})
				dp.addTask(Task{Kind: TaskValidate, Minutes: m.ValidateLink,
					Loc: c.Route.From, Deps: window(connID), CableIdx: ci})
			}
		}
	}
	return dp
}

// countKind returns how many tasks of kind k the plan has.
func (p *Plan) countKind(k TaskKind) int {
	n := 0
	for _, t := range p.Tasks {
		if t.Kind == k {
			n++
		}
	}
	return n
}

// Validate checks the plan DAG: dependencies in range, acyclic (IDs only
// reference earlier tasks, which Build guarantees by construction).
func (p *Plan) Validate() error {
	for _, t := range p.Tasks {
		for _, d := range t.Deps {
			if d < 0 || d >= len(p.Tasks) {
				return fmt.Errorf("deploy: task %d dep %d out of range", t.ID, d)
			}
			if d >= t.ID {
				return fmt.Errorf("deploy: task %d depends on later task %d", t.ID, d)
			}
		}
	}
	return nil
}
