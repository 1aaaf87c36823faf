package lifecycle

import (
	"fmt"
	"math/rand/v2"

	"physdep/internal/topology"
	"physdep/internal/units"
)

// ExpansionStep records the physical cost of adding capacity to a fabric:
// how many existing links had to be rewired (disconnected from in-service
// switches and reconnected), how many brand-new links were added, and
// where the work happened. "Rewired" links are the expensive, risky ones —
// they touch live traffic; new links to new gear are safe.
//
// The two counters partition the physical actions: each rewire is one
// broken live link plus its re-terminations on the new gear, priced once
// through the per-rewire rate; NewLinks counts only links whose ports
// were all previously free. A splice-grown expander add therefore
// reports NewLinks = 0 — every port the new ToR lights up was freed by a
// rewire and is billed there. (NewLinks used to also count the
// rewire-created links, double-billing every splice.)
type ExpansionStep struct {
	Fabric     string
	AddedToRs  int
	NewLinks   int // links added on previously-free ports only
	Rewired    int // live links broken and re-terminated
	FloorTasks int // distinct physical locations visited (racks or panels)
}

// LaborMinutes prices the step at DefaultActionCosts: a rewire costs a
// full live-fiber move — break the in-service link and re-terminate both
// freed ends (paper §4.3 shows these are slow and careful) — so the
// rewire price covers the whole splice, re-terminations included; a new
// link is an ordinary connection on previously-free ports. The two never
// bill the same physical action twice.
func (s ExpansionStep) LaborMinutes() units.Minutes {
	return units.Minutes(float64(plannerCosts.Rewire)*float64(s.Rewired) +
		float64(plannerCosts.NewLink)*float64(s.NewLinks))
}

// addRewires folds one add's outcome into the step: the rewires performed,
// the touched in-service switches (exactly the rewire endpoints — no
// fingerprint diffing), and the links that consumed only free ports
// (degree gained minus the two ports every splice re-terminated).
func (s *ExpansionStep) addRewires(degree int, rewires []topology.Rewire, touched map[int]bool) {
	s.AddedToRs++
	s.Rewired += len(rewires)
	s.NewLinks += degree - 2*len(rewires)
	for _, rw := range rewires {
		touched[rw.A] = true
		touched[rw.B] = true
	}
}

// ExpandJellyfish adds n ToRs to a Jellyfish one at a time, per the
// paper's incremental procedure, and aggregates the physical cost. Each
// added ToR rewires R/2 random live links whose endpoints can be anywhere
// on the floor — the unbundleable, walk-heavy pattern the Xpander paper
// calls "highly non-trivial" to pre-plan.
func ExpandJellyfish(t *topology.Topology, cfg topology.JellyfishConfig, n int, rng *rand.Rand) (ExpansionStep, error) {
	step := ExpansionStep{Fabric: t.Name}
	touched := map[int]bool{}
	for i := 0; i < n; i++ {
		id, rewires, err := topology.JellyfishAddToR(t, cfg, rng)
		if err != nil {
			return step, fmt.Errorf("lifecycle: jellyfish expansion: %w", err)
		}
		step.addRewires(t.Degree(id), rewires, touched)
	}
	step.FloorTasks = len(touched) + step.AddedToRs
	return step, nil
}

// ExpandXpander adds n ToRs to an Xpander, spreading them round-robin
// across meta-nodes, and aggregates the physical cost (d/2 live rewires
// per ToR — the paper's headline number for Xpander's expansion tax).
func ExpandXpander(t *topology.Topology, cfg topology.XpanderConfig, n int, rng *rand.Rand) (ExpansionStep, error) {
	step := ExpansionStep{Fabric: t.Name}
	touched := map[int]bool{}
	for i := 0; i < n; i++ {
		id, rewires, err := topology.XpanderAddToR(t, cfg, i%(cfg.D+1), rng)
		if err != nil {
			return step, fmt.Errorf("lifecycle: xpander expansion: %w", err)
		}
		step.addRewires(t.Degree(id), rewires, touched)
	}
	step.FloorTasks = len(touched) + step.AddedToRs
	return step, nil
}

// ExpandClosViaPanels grows a patch-panel Clos by newAggs aggregation
// blocks (each with uplinksPerAgg uplinks), reusing ClosFabric.ExpandAggs,
// and converts the rewire report into an ExpansionStep for side-by-side
// comparison with the expander fabrics. The crucial physical difference:
// all moves happen at panels, not at in-service switches across the
// floor, and no pre-installed agg→panel or spine→panel fiber moves.
func ExpandClosViaPanels(cf *ClosFabric, newAggs, uplinksPerAgg, panelPorts int) (ExpansionStep, RewireReport, error) {
	rep, err := cf.ExpandAggs(newAggs, uplinksPerAgg, panelPorts)
	if err != nil {
		return ExpansionStep{}, rep, err
	}
	step := ExpansionStep{
		Fabric:     "clos+panels",
		AddedToRs:  newAggs,
		NewLinks:   rep.NewConnects,
		Rewired:    rep.JumperMoves,
		FloorTasks: rep.PanelsTouched + newAggs,
	}
	return step, rep, nil
}
