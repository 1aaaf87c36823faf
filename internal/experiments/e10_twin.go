package experiments

import (
	"context"
	"fmt"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/lifecycle"
	"physdep/internal/physerr"
	"physdep/internal/placement"
	"physdep/internal/topology"
	"physdep/internal/twin"
)

// twinLayout lays out the k=6 fat-tree the twin experiments check.
func twinLayout() (*placement.Placement, *cabling.Plan, error) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 6, Rate: 100})
	if err != nil {
		return nil, nil, err
	}
	return layout(ft, floorplan.DefaultHall(4, 16))
}

// E10TwinDryRun plants one violation of each rule class in a valid
// build's twin, verifies the twin catches every one, and prices the
// remediation against discovering them at install or live stages.
func E10TwinDryRun(ctx context.Context) (*Result, error) {
	p, plan, err := twinLayout()
	if err != nil {
		return nil, err
	}
	m, err := twin.FromNetwork(p, plan)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "E10",
		Title: "Digital-twin dry run: planted violations caught at design time",
		Paper: "§5.3: almost all deployment mistakes could have been averted with multi-layer digital-twin dry runs; late detection is dramatically more expensive",
	}
	schema, rules := twin.DefaultSchema(), twin.DefaultRules()
	if pre := twin.CheckAll(m, schema, rules); len(pre) != 0 {
		return nil, fmt.Errorf("E10: fixture not clean: %v", pre)
	}
	// Plant one violation per rule class.
	plants := []struct {
		rule  string
		apply func() error
	}{
		{"tray-capacity", func() error {
			for _, tr := range m.EntitiesOfKind(twin.KindTray) {
				if len(m.RelatedTo(tr.ID, twin.VerbRoutesThrough)) > 0 {
					tr.SetAttr("capacity_mm2", 1)
					return nil
				}
			}
			return fmt.Errorf("no loaded tray")
		}},
		{"rack-space", func() error {
			m.EntitiesOfKind(twin.KindRack)[0].SetAttr("ru_capacity", 1)
			return nil
		}},
		{"rack-plenum", func() error {
			// Attack a rack that actually terminates cables: racks own
			// switches; pick the rack of switch-0.
			for _, r := range m.EntitiesOfKind(twin.KindRack) {
				for _, id := range m.Related(r.ID, twin.VerbContains) {
					if id == "switch-0" {
						r.SetAttr("plenum_mm2", 1)
						return nil
					}
				}
			}
			return fmt.Errorf("switch-0's rack not found")
		}},
		{"bend-radius", func() error {
			for _, tr := range m.EntitiesOfKind(twin.KindTray) {
				occ := m.RelatedTo(tr.ID, twin.VerbRoutesThrough)
				for _, id := range occ {
					if e := m.Entity(id); e != nil && e.Kind == twin.KindCable {
						tr.SetAttr("min_bend_mm", 1)
						return nil
					}
				}
			}
			// No singleton cables in trays? force one: route cable-0.
			if err := m.Relate("cable-0", twin.VerbRoutesThrough, "tray-0"); err != nil {
				return err
			}
			m.Entity("tray-0").SetAttr("min_bend_mm", 1)
			return nil
		}},
		{"door-width", func() error {
			m.EntitiesOfKind(twin.KindRack)[1].SetAttr("unit_width_m", 1.3)
			return nil
		}},
		{"schema:unknown-kind", func() error {
			return m.Add(&twin.Entity{ID: "exotic-0", Kind: twin.Kind("free-space-optic")})
		}},
	}
	caught := 0
	res.Lines = append(res.Lines, fmt.Sprintf("%-22s %8s", "planted_rule", "caught"))
	for _, pl := range plants {
		if err := pl.apply(); err != nil {
			return nil, fmt.Errorf("E10 plant %s: %w", pl.rule, err)
		}
		vs := twin.CheckAll(m, schema, rules)
		hit := false
		for _, v := range vs {
			if v.Rule == pl.rule {
				hit = true
				break
			}
		}
		if hit {
			caught++
		}
		res.Lines = append(res.Lines, fmt.Sprintf("%-22s %8v", pl.rule, hit))
	}
	if caught != len(plants) {
		return nil, fmt.Errorf("E10: only %d/%d planted violations caught", caught, len(plants))
	}
	// Price the escalation curve.
	final := twin.CheckAll(m, schema, rules)
	res.Lines = append(res.Lines, "")
	res.Lines = append(res.Lines, fmt.Sprintf("%-12s %14s %14s %8s",
		"caught_at", "cost_per_fix$", "total_cost$", "vs_twin"))
	for _, st := range []twin.Stage{twin.StageDesign, twin.StagePlanning, twin.StageInstall, twin.StageLive} {
		rep := twin.Savings(final, 800, st)
		res.Lines = append(res.Lines, fmt.Sprintf("%-12s %14.0f %14.0f %7.0fx",
			st, float64(twin.RemediationCost(800, st)), float64(rep.NoTwinCost), rep.SavingsRatio))
	}
	res.Notes = fmt.Sprintf("%d/%d planted violations caught on the twin; catching the same set live costs 30×", caught, len(plants))
	return res, nil
}

// E13Decom compares twin-checked decommissioning against naive
// remove-by-age on a network carrying three cable generations.
func E13Decom(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E13",
		Title: "Decommissioning: safe-to-remove analysis vs remove-by-age",
		Paper: "§2.1: when we must add cables we seldom remove old ones; it is surprisingly hard to automate decom — one might accidentally remove the wrong thing",
	}
	// Build an aged plant: 3 generations × 120 cables; newer generations
	// progressively carry the live links, but some gen-0 cables are still
	// in service (the long tail that makes decom dangerous).
	var cables []lifecycle.CableRecord
	id := 0
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 120; i++ {
			inService := false
			planned := false
			switch gen {
			case 0:
				inService = i%15 == 0 // 8 stragglers still live
			case 1:
				inService = i%3 != 0
			case 2:
				inService = true
				planned = i%4 == 0
			}
			cables = append(cables, lifecycle.CableRecord{
				ID: id, Bundle: id / 12, Generation: gen,
				InService: inService, Planned: planned,
			})
			id++
		}
	}
	if err := lifecycle.ValidateRecords(cables); err != nil {
		return nil, err
	}
	plan := lifecycle.PlanDecom(cables)
	pulled, outages := lifecycle.NaiveDecomByAge(cables, 0)
	res.Lines = append(res.Lines, fmt.Sprintf("%-16s %10s %10s %10s",
		"method", "pulled", "outages", "blocked"))
	res.Lines = append(res.Lines, fmt.Sprintf("%-16s %10d %10d %10d",
		"twin-checked", len(plan.RemovableCables), 0, len(plan.BlockedBundles)))
	res.Lines = append(res.Lines, fmt.Sprintf("%-16s %10d %10d %10s",
		"naive-by-age", len(pulled), len(outages), "-"))
	relief := lifecycle.TrayRelief(plan, func(int) float64 { return 35.0 }) // ~6.7mm OD cable
	res.Notes = fmt.Sprintf("twin-checked decom frees %.0f mm² of tray with zero outages; naive age-based pulls cut %d live/planned cables",
		relief, len(outages))
	if len(outages) == 0 {
		return nil, fmt.Errorf("E13: naive decom caused no outages — fixture too easy")
	}
	return res, nil
}

// E14Envelope mutates a valid design 500 ways and measures how many land
// outside the declarative schema's capability envelope — the early
// warning of §5.2.
func E14Envelope(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E14",
		Title: "Capability envelope: which design variants can even be represented?",
		Paper: "§5.2: moving design knowledge into declarative data lets us detect out-of-envelope designs because we cannot represent them without schema changes",
	}
	schema, rules := twin.DefaultSchema(), twin.DefaultRules()
	kinds := []twin.Kind{twin.KindSwitch, twin.KindCable, twin.KindBundle,
		twin.Kind("freespace-optic"), twin.Kind("60ghz-dish"), twin.Kind("robot-arm")}
	verbs := []twin.Verb{twin.VerbContains, twin.VerbConnects, twin.VerbRoutesThrough, twin.VerbFeeds}
	// Only the twin is mutated, so every variant starts from one layout.
	p, plan, err := twinLayout()
	if err != nil {
		return nil, err
	}
	inEnvelope, outEnvelope, physicsViolations := 0, 0, 0
	const variants = 500
	for v := 0; v < variants; v++ {
		if err := ctx.Err(); err != nil {
			return nil, physerr.Canceled(err)
		}
		m, err := twin.FromNetwork(p, plan)
		if err != nil {
			return nil, err
		}
		// Deterministic pseudo-random mutation: pick by arithmetic on v.
		switch v % 5 {
		case 0: // new entity of a (possibly exotic) kind
			k := kinds[v%len(kinds)]
			e := &twin.Entity{ID: fmt.Sprintf("mut-%d", v), Kind: k}
			for _, name := range []string{"radix", "rate_gbps", "ru", "power_w",
				"length_m", "diameter_mm", "bend_radius_mm", "cross_section_mm2"} {
				e.SetAttr(name, 1)
			}
			if err := m.Add(e); err != nil {
				return nil, err
			}
		case 1: // exotic relation between existing entities
			verb := verbs[v%len(verbs)]
			if err := m.Relate("switch-0", verb, "switch-1"); err != nil {
				return nil, err
			}
		case 2: // physical overload: shrink a tray
			trays := m.EntitiesOfKind(twin.KindTray)
			trays[v%len(trays)].SetAttr("capacity_mm2", 0.5)
		case 3: // conjoined rack too wide
			racks := m.EntitiesOfKind(twin.KindRack)
			racks[v%len(racks)].SetAttr("unit_width_m", 1.2+float64(v%4)*0.2)
		case 4: // benign attribute tweak: stays in envelope, passes physics
			racks := m.EntitiesOfKind(twin.KindRack)
			racks[v%len(racks)].SetAttr("ru_capacity", 44)
		}
		vs := twin.CheckAll(m, schema, rules)
		schemaViol := false
		physViol := false
		for _, viol := range vs {
			if len(viol.Rule) >= 7 && viol.Rule[:7] == "schema:" {
				schemaViol = true
			} else {
				physViol = true
			}
		}
		switch {
		case schemaViol:
			outEnvelope++
		case physViol:
			physicsViolations++
		default:
			inEnvelope++
		}
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-24s %8s", "verdict", "designs"))
	res.Lines = append(res.Lines, fmt.Sprintf("%-24s %8d", "in-envelope, clean", inEnvelope))
	res.Lines = append(res.Lines, fmt.Sprintf("%-24s %8d", "in-envelope, physics-bad", physicsViolations))
	res.Lines = append(res.Lines, fmt.Sprintf("%-24s %8d", "out-of-envelope (schema)", outEnvelope))
	if inEnvelope+physicsViolations+outEnvelope != variants {
		return nil, fmt.Errorf("E14: verdicts don't add up")
	}
	res.Notes = "schema rejection is the cheap early warning: those designs would have required automation changes before deployment could even be described"
	return res, nil
}
