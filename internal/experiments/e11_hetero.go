package experiments

import (
	"context"
	"fmt"

	"physdep/internal/cabling"
	"physdep/internal/core"
	"physdep/internal/floorplan"
	"physdep/internal/placement"
	"physdep/internal/supply"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// mixedRateLeafSpine builds a leaf–spine where a fraction of the leaves
// are a newer 400G generation (with their own uplinks) while the rest
// remain 100G — the §3.4 in-place-evolution reality.
func mixedRateLeafSpine(newLeaves int) (*topology.Topology, error) {
	t := topology.NewTopology(fmt.Sprintf("mixed-leafspine-%dnew", newLeaves))
	const spines, leaves = 8, 32
	spineIDs := make([]int, spines)
	for s := range spineIDs {
		// Spines are the new generation: 400G-capable.
		spineIDs[s] = t.AddSwitch(topology.Node{Role: topology.RoleSpine, Radix: 64,
			Rate: 400, Pod: -1, Label: fmt.Sprintf("spine-%d", s)})
	}
	for l := 0; l < leaves; l++ {
		rate := units.Gbps(100)
		if l < newLeaves {
			rate = 400
		}
		leaf := t.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: 32, Rate: rate,
			ServerPorts: 24, Pod: l, Label: fmt.Sprintf("leaf-%d", l)})
		for u := 0; u < 8; u++ {
			t.Link(leaf, spineIDs[(l+u)%spines])
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// E11Heterogeneity evaluates the same leaf–spine at increasing
// generational mix and reports the diversity metrics plus cabling
// consequences — how many link speeds one network absorbs (§5.4's
// "diversity-support" metric).
func E11Heterogeneity(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E11",
		Title: "Generational heterogeneity: mixed 100G/400G fabric",
		Paper: "§3.4: in-place evolution leads to heterogeneity — multiple radixes and line rates; a design should support it (LEGUP, transit blocks)",
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-24s %7s %8s %10s %10s %12s",
		"fabric", "rates", "radixes", "cables", "capex_$", "deploy_hrs"))
	for _, newLeaves := range []int{0, 8, 16, 32} {
		tp, err := mixedRateLeafSpine(newLeaves)
		if err != nil {
			return nil, err
		}
		rep, err := core.EvaluateCtx(ctx, core.DefaultInput(tp, floorplan.DefaultHall(4, 12)))
		if err != nil {
			return nil, err
		}
		res.Lines = append(res.Lines, fmt.Sprintf("%-24s %7d %8d %10d %10.0f %12.1f",
			tp.Name, rep.DiversityRates, rep.DiversityRadixs, rep.Cabling.Cables,
			float64(rep.TotalCapex), float64(rep.TimeToDeploy)))
	}
	// Second section: the §3.4 transit-block alternative. Bridging old
	// and new generations directly burns a new-generation port per
	// clamped 100G link; a transit block delivers the new rate per
	// new-side port.
	tm, err := topology.TransitMesh(topology.TransitMeshConfig{
		OldBlocks: 8, NewBlocks: 4, TransitBlocks: 2,
		OldRate: 100, NewRate: 400,
		LinksWithinMesh: 2, LinksToTransit: 4, ServerPorts: 16,
	})
	if err != nil {
		return nil, err
	}
	if !tm.Connected() {
		return nil, fmt.Errorf("E11: transit mesh disconnected")
	}
	direct, transit := topology.CrossGenPortCost(100, 400)
	res.Lines = append(res.Lines, "")
	res.Lines = append(res.Lines, fmt.Sprintf(
		"transit blocks (§3.4): %s bridges %d old + %d new blocks; cross-gen capacity per new-block port: direct %v vs via-transit %v (%.0f×)",
		tm.Name, 8, 4, direct, transit, float64(transit)/float64(direct)))
	res.Notes = "old 100G leaves keep working against 400G spines (links clamp to the slower port); capex steps up with each converted leaf — incremental evolution without forklift; transit blocks keep low-speed ports off high-speed switches entirely"
	return res, nil
}

// E12Fungibility prices the supply-chain design rule: plan a fabric's
// cables against a two-vendor catalog, lose the primary vendor, and
// compare; then price the second-best design envelope.
func E12Fungibility(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E12",
		Title: "Fungibility: vendor loss and the second-best design envelope",
		Paper: "§2.2/§3.3: fungibility means designing for the second-best part — e.g. a shorter allowable cable length; AWS calls it a fundamental principle",
	}
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		return nil, err
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(4, 12))
	if err != nil {
		return nil, err
	}
	p, err := placement.Greedy(ft, f, placement.Config{})
	if err != nil {
		return nil, err
	}
	demands := p.Demands(nil)
	cat := cabling.SecondSourceCatalog()
	res.Lines = append(res.Lines, fmt.Sprintf("%-22s %10s %12s %12s %10s",
		"scenario", "demands", "infeasible", "cost_$", "delta%"))
	// One unconstrained plan is the baseline of every scenario below.
	plan, err := cabling.PlanCables(f, cat, demands, cabling.Options{})
	if err != nil {
		return nil, err
	}
	base, err := supply.AssessVendorLoss(f, cat, plan, demands, "nobody")
	if err != nil {
		return nil, err
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-22s %10d %12d %12.0f %10s",
		"both-vendors", base.Demands, 0, float64(base.BaselineCost), "-"))
	lost, err := supply.AssessVendorLoss(f, cat, plan, demands, "acme")
	if err != nil {
		return nil, err
	}
	delta := 100 * float64(lost.CostDelta) / float64(lost.BaselineCost)
	res.Lines = append(res.Lines, fmt.Sprintf("%-22s %10d %12d %12.0f %9.1f%%",
		"lose-primary(acme)", lost.Demands, len(lost.Infeasible), float64(lost.ConstrainedCost), delta))
	baseline, envelope, infeasible, err := supply.FungibilityTax(f, cat, plan, demands)
	if err != nil {
		return nil, err
	}
	envDelta := 100 * (float64(envelope) - float64(baseline)) / float64(baseline)
	res.Lines = append(res.Lines, fmt.Sprintf("%-22s %10d %12d %12.0f %9.1f%%",
		"second-best-envelope", len(demands), infeasible, float64(envelope), envDelta))
	res.Notes = fmt.Sprintf("losing the primary vendor re-medias %d cables at +%.1f%% cost but zero schedule slip; designing to the envelope up front pays %.1f%% as insurance",
		lost.MediaChanges, delta, envDelta)
	return res, nil
}
