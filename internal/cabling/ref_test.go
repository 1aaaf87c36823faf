package cabling

import (
	"fmt"
	"sort"

	"physdep/internal/floorplan"
	"physdep/internal/obs"
)

// RefPlanCables exposes the reference planner to the external test
// package, which needs placement (and placement imports cabling).
var RefPlanCables = refPlanCables

// refPlanCables is the map-and-copy planner PlanCables replaced, kept
// verbatim as the differential test's reference: cables grouped in a
// map keyed by rack pair, keys sorted, each group's indices sorted and
// every bundle given its own copy of its chunk.
func refPlanCables(f *floorplan.Floorplan, cat *Catalog, demands []Demand, opts Options) (*Plan, error) {
	defer obs.Time("cabling.plan")()
	obs.Add("cabling.plan.demands", int64(len(demands)))
	p := &Plan{Tray: floorplan.NewTrayLoad(f)}
	type pairKey struct {
		a, b int // rack indices, a <= b
	}
	groups := map[pairKey][]int{}
	for _, d := range demands {
		route, err := f.RouteBetween(d.From, d.To)
		if err != nil {
			return nil, fmt.Errorf("cabling: demand %d: %w", d.ID, err)
		}
		spec, err := cat.SelectFiltered(d.Rate, route.Length, d.ExtraLoss, opts.Filter)
		if err != nil {
			return nil, fmt.Errorf("demand %d (%v→%v): %w", d.ID, d.From, d.To, err)
		}
		idx := len(p.Cables)
		p.Cables = append(p.Cables, Cable{Demand: d, Route: route, Spec: spec})
		ka, kb := f.RackIndex(d.From), f.RackIndex(d.To)
		if ka > kb {
			ka, kb = kb, ka
		}
		groups[pairKey{ka, kb}] = append(groups[pairKey{ka, kb}], idx)
	}
	// Deterministic bundle order: sort group keys.
	keys := make([]pairKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		idxs := groups[k]
		sort.Ints(idxs)
		if len(idxs) < MinBundleSize {
			for _, i := range idxs {
				p.addBundle([]int{i}, 1.0) // singleton: no packing overhead
			}
			continue
		}
		for start := 0; start < len(idxs); start += MaxBundleCables {
			end := start + MaxBundleCables
			if end > len(idxs) {
				end = len(idxs)
			}
			chunk := idxs[start:end]
			if len(chunk) < MinBundleSize {
				for _, i := range chunk {
					p.addBundle([]int{i}, 1.0)
				}
			} else {
				p.addBundle(append([]int(nil), chunk...), PackingFactor)
			}
		}
	}
	obs.Add("cabling.plan.cables", int64(len(p.Cables)))
	obs.Add("cabling.plan.bundles", int64(len(p.Bundles)))
	return p, nil
}
