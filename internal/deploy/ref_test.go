package deploy

import (
	"physdep/internal/cabling"
	"physdep/internal/costmodel"
	"physdep/internal/placement"
	"physdep/internal/units"
)

// refAddTask is the addTask Build used to call, which filled in
// CableIdx = -1 from the task kind.
func (p *Plan) refAddTask(t Task) int {
	t.ID = len(p.Tasks)
	if t.CableIdx == 0 && t.Kind != TaskConnect && t.Kind != TaskValidate && t.Kind != TaskRework {
		t.CableIdx = -1
	}
	p.Tasks = append(p.Tasks, t)
	return t.ID
}

// refBuild is the Build that predates plans by index, kept verbatim
// except for the task labels as the differential test's reference: a
// slot→task map, a [][]int of pull groups, and CableIdx filled in by
// refAddTask.
func refBuild(p *placement.Placement, plan *cabling.Plan, m *costmodel.Model, opts BuildOptions) *Plan {
	dp := &Plan{}
	// Rack installs.
	rackTask := make(map[int]int) // floor slot -> task ID
	for r := 0; r < p.NumRacks(); r++ {
		slot := p.SlotOfRack[r]
		loc := p.Floor.LocOf(slot)
		rackTask[slot] = dp.refAddTask(Task{Kind: TaskInstallRack, Minutes: m.InstallRack,
			Loc: loc})
	}
	// Switch installs depend on their rack.
	switchTask := make([]int, p.Topo.N)
	for sw := 0; sw < p.Topo.N; sw++ {
		loc := p.LocOfSwitch(sw)
		slot := p.Floor.RackIndex(loc)
		switchTask[sw] = dp.refAddTask(Task{Kind: TaskInstallSwitch, Minutes: m.InstallSwitch,
			Loc: loc, Deps: []int{rackTask[slot]}})
	}
	// Bundle pulls; then per-cable connect + validate.
	for _, b := range plan.Bundles {
		pullGroups := [][]int{b.CableIdx}
		if !opts.Prebundle && len(b.CableIdx) > 1 {
			// Individual pulls: one group per cable.
			pullGroups = nil
			for _, ci := range b.CableIdx {
				pullGroups = append(pullGroups, []int{ci})
			}
		}
		for _, group := range pullGroups {
			first := plan.Cables[group[0]]
			srcLoc, dstLoc := first.Route.From, first.Route.To
			srcSlot := p.Floor.RackIndex(srcLoc)
			dstSlot := p.Floor.RackIndex(dstLoc)
			var mins units.Minutes
			if len(group) > 1 {
				mins = m.PullBundleFixed + units.Minutes(float64(m.PullBundlePerMeter)*float64(first.Route.Length))
				dp.OffFloorMinutes += units.Minutes(float64(m.BundlePrefabPerCbl) * float64(len(group)))
			} else {
				mins = m.PullCableFixed + units.Minutes(float64(m.PullCablePerMeter)*float64(first.Route.Length))
			}
			pullID := dp.refAddTask(Task{Kind: TaskPullBundle, Minutes: mins, Loc: srcLoc,
				Deps: []int{rackTask[srcSlot], rackTask[dstSlot]}})
			for _, ci := range group {
				c := plan.Cables[ci]
				e := p.Topo.Edges[c.Demand.ID]
				connID := dp.refAddTask(Task{Kind: TaskConnect, Minutes: 2 * m.ConnectEnd,
					Loc:      c.Route.From,
					Deps:     []int{pullID, switchTask[e.U], switchTask[e.V]},
					CableIdx: ci})
				dp.refAddTask(Task{Kind: TaskValidate, Minutes: m.ValidateLink,
					Loc: c.Route.From, Deps: []int{connID}, CableIdx: ci})
			}
		}
	}
	return dp
}
