// Package supply models the supply-chain side of physical deployability
// (§2.2, §3.3): multi-vendor catalogs, what happens to a cable plan when
// a vendor drops out, and the "design for the second-best part" rule that
// fungibility imposes (a fungible design must work with the weakest
// interchangeable part, e.g. the shortest-reach DAC any vendor sells).
package supply

import (
	"fmt"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/units"
)

// Impact reports how a vendor outage changes a cabling plan.
type Impact struct {
	Demands         int
	Infeasible      []int // demand IDs that no remaining vendor can serve
	MediaChanges    int   // demands whose selected spec changed
	BaselineCost    units.USD
	ConstrainedCost units.USD
	CostDelta       units.USD // constrained − baseline (material only)
}

// AssessVendorLoss replans the given demands with the named vendor's
// parts excluded and compares against base, the unconstrained plan of
// the same demands (cabling.PlanCables(f, cat, demands, Options{})),
// which the caller plans once for every scenario it assesses. Infeasible
// demands are collected rather than failing fast: the report is the
// point.
func AssessVendorLoss(f *floorplan.Floorplan, cat *cabling.Catalog, base *cabling.Plan,
	demands []cabling.Demand, lostVendor string) (Impact, error) {
	imp := Impact{Demands: len(demands), BaselineCost: base.Summarize().MaterialCost}
	keep := func(s cabling.Spec) bool { return s.Vendor != lostVendor }
	baseSpec := map[int]string{}
	for _, c := range base.Cables {
		baseSpec[c.Demand.ID] = c.Spec.Name
	}
	feasible, infeasible, err := splitServable(f, cat, demands, keep)
	if err != nil {
		return Impact{}, err
	}
	imp.Infeasible = infeasible
	if len(feasible) == 0 {
		return imp, nil
	}
	constrained, err := cabling.PlanCables(f, cat, feasible, cabling.Options{Filter: keep})
	if err != nil {
		return Impact{}, fmt.Errorf("supply: constrained plan: %w", err)
	}
	imp.ConstrainedCost = constrained.Summarize().MaterialCost
	imp.CostDelta = imp.ConstrainedCost - imp.BaselineCost
	for _, c := range constrained.Cables {
		if baseSpec[c.Demand.ID] != c.Spec.Name {
			imp.MediaChanges++
		}
	}
	return imp, nil
}

// SecondBestCatalog derives the fungibility design envelope from a
// multi-vendor catalog: for each (class, rate), the reach and loss budget
// are clamped to the weakest vendor's numbers and the cost to the
// priciest — a design validated against this catalog works no matter who
// ships the parts.
func SecondBestCatalog(cat *cabling.Catalog) *cabling.Catalog {
	type key struct {
		class cabling.MediaClass
		rate  units.Gbps
	}
	worst := map[key]cabling.Spec{}
	for _, s := range cat.Media {
		k := key{s.Class, s.Rate}
		w, ok := worst[k]
		if !ok {
			s.Name = fmt.Sprintf("%s/%s-envelope", s.Class, s.Rate)
			s.Vendor = "any"
			worst[k] = s
			continue
		}
		if s.MaxLength < w.MaxLength {
			w.MaxLength = s.MaxLength
		}
		if s.LossBudget < w.LossBudget {
			w.LossBudget = s.LossBudget
		}
		if s.CostFixed > w.CostFixed {
			w.CostFixed = s.CostFixed
		}
		if s.CostPerMeter > w.CostPerMeter {
			w.CostPerMeter = s.CostPerMeter
		}
		if s.Diameter > w.Diameter {
			w.Diameter = s.Diameter
		}
		worst[k] = w
	}
	out := &cabling.Catalog{}
	// Deterministic order: follow the original catalog's first-seen order.
	seen := map[key]bool{}
	for _, s := range cat.Media {
		k := key{s.Class, s.Rate}
		if !seen[k] {
			seen[k] = true
			out.Media = append(out.Media, worst[k])
		}
	}
	return out
}

// FungibilityTax compares material cost of a demand set planned against
// the full catalog (base, as AssessVendorLoss takes it) vs the
// second-best envelope — the premium paid for being able to buy from
// anyone.
func FungibilityTax(f *floorplan.Floorplan, cat *cabling.Catalog, base *cabling.Plan,
	demands []cabling.Demand) (baseline, envelope units.USD, infeasible int, err error) {
	baseline = base.Summarize().MaterialCost
	env := SecondBestCatalog(cat)
	feasible, unservable, err := splitServable(f, env, demands, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	infeasible = len(unservable)
	if len(feasible) > 0 {
		ep, perr := cabling.PlanCables(f, env, feasible, cabling.Options{})
		if perr != nil {
			return 0, 0, 0, perr
		}
		envelope = ep.Summarize().MaterialCost
	}
	return baseline, envelope, infeasible, nil
}

// splitServable routes each demand and splits the set by whether cat has
// media, restricted to specs keep accepts (nil keeps all), for its route:
// servable demands in input order, and the IDs of the rest. The callers'
// baseline plans have already validated every demand's locations, so a
// routing error here only keeps the no-panic contract.
func splitServable(f *floorplan.Floorplan, cat *cabling.Catalog, demands []cabling.Demand,
	keep func(cabling.Spec) bool) (servable []cabling.Demand, unservable []int, err error) {
	for _, d := range demands {
		route, err := f.RouteBetween(d.From, d.To)
		if err != nil {
			return nil, nil, fmt.Errorf("supply: demand %d: %w", d.ID, err)
		}
		if _, err := cat.SelectFiltered(d.Rate, route.Length, d.ExtraLoss, keep); err != nil {
			unservable = append(unservable, d.ID)
			continue
		}
		servable = append(servable, d)
	}
	return servable, unservable, nil
}
