package cabling

import (
	"cmp"
	"fmt"
	"slices"

	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/units"
)

// Demand is one required physical link: carry Rate between two rack
// locations, passing through ExtraLoss worth of mid-span devices (patch
// panels, OCSes). ID is caller-defined — placement uses topology edge IDs.
type Demand struct {
	ID        int
	From, To  floorplan.RackLoc
	Rate      units.Gbps
	ExtraLoss units.DB
}

// Cable is one planned physical cable: a demand bound to a route and a
// catalog spec.
type Cable struct {
	Demand Demand
	Route  floorplan.Route
	Spec   Spec
}

// Length returns the pulled length of the cable.
func (c Cable) Length() units.Meters { return c.Route.Length }

// Bundle is a group of same-rack-pair cables pre-assembled off the floor
// and pulled as one unit (Singh et al.). Cross-section includes a packing
// overhead: bundled cables don't tile perfectly.
type Bundle struct {
	CableIdx     []int // indices into Plan.Cables; a capped window of one array all bundles share
	Route        floorplan.Route
	CrossSection units.SquareMillimeters
}

// Plan is the complete cabling of a placed topology: every cable, its
// bundling, and the resulting tray occupancy.
type Plan struct {
	Cables  []Cable
	Bundles []Bundle // covers every cable exactly once (singletons included)
	Tray    *floorplan.TrayLoad
}

// The bundling rule: a rack-pair group of at least MinBundleSize cables
// is pre-built as bundles of at most MaxBundleCables (longer groups are
// split), each with PackingFactor times its members' cross-section,
// because bundled cables don't tile perfectly. Smaller groups are pulled
// cable by cable, each a singleton Bundle for uniform accounting.
const (
	MinBundleSize   = 4
	MaxBundleCables = 64
	PackingFactor   = 1.2
)

// Options tunes planning.
type Options struct {
	// Filter restricts catalog specs (vendor exclusions etc.).
	Filter func(Spec) bool
}

// PlanCables routes every demand, selects media, groups cables into
// pre-built bundles keyed by rack pair, and accounts tray occupancy.
// It fails fast on the first demand with no feasible media; it does NOT
// fail on tray overload — callers inspect Plan.Tray (a twin check or
// report surfaces it) because overload is a finding, not a planning bug.
func PlanCables(f *floorplan.Floorplan, cat *Catalog, demands []Demand, opts Options) (*Plan, error) {
	defer obs.Time("cabling.plan")()
	obs.Add("cabling.plan.demands", int64(len(demands)))
	p := &Plan{Cables: make([]Cable, 0, len(demands)), Tray: floorplan.NewTrayLoad(f)}
	pair := make([]int, len(demands)) // rack-pair key per cable: low*NumRacks + high
	order := make([]int, len(demands))
	for i, d := range demands {
		route, err := f.RouteBetween(d.From, d.To)
		if err != nil {
			return nil, fmt.Errorf("cabling: demand %d: %w", d.ID, err)
		}
		spec, err := cat.SelectFiltered(d.Rate, route.Length, d.ExtraLoss, opts.Filter)
		if err != nil {
			return nil, fmt.Errorf("demand %d (%v→%v): %w", d.ID, d.From, d.To, err)
		}
		p.Cables = append(p.Cables, Cable{Demand: d, Route: route, Spec: spec})
		a, b := f.RackIndex(d.From), f.RackIndex(d.To)
		pair[i], order[i] = min(a, b)*f.NumRacks()+max(a, b), i
	}
	// One stable sort groups the cables by rack pair: groups in key order,
	// each in demand order. Every bundle's CableIdx is a capped window of
	// order, so no bundle copies its cables. One walk over the bundles
	// counts them, so the bundle list is sized once; a second builds them.
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(pair[i], pair[j]) })
	nb := 0
	eachBundle(order, pair, func(lo, hi int) { nb++ })
	p.Bundles = make([]Bundle, 0, nb)
	eachBundle(order, pair, func(lo, hi int) {
		packing := 1.0 // singleton: no packing overhead
		if hi-lo >= MinBundleSize {
			packing = PackingFactor
		}
		p.addBundle(order[lo:hi:hi], packing)
	})
	obs.Add("cabling.plan.cables", int64(len(p.Cables)))
	obs.Add("cabling.plan.bundles", int64(len(p.Bundles)))
	return p, nil
}

// eachBundle calls fn(lo, hi) for each bundle of the cables in order,
// sorted by their rack-pair keys in pair: bundle order[lo:hi] is a chunk
// of at most MaxBundleCables cables of one rack-pair group, or a single
// cable of a chunk below MinBundleSize, which is pulled cable by cable.
func eachBundle(order, pair []int, fn func(lo, hi int)) {
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && pair[order[hi]] == pair[order[lo]] {
			hi++
		}
		for start := lo; start < hi; start += MaxBundleCables {
			end := min(start+MaxBundleCables, hi)
			if end-start >= MinBundleSize {
				fn(start, end)
				continue
			}
			for i := start; i < end; i++ {
				fn(i, i+1)
			}
		}
		lo = hi
	}
}

func (p *Plan) addBundle(cables []int, packing float64) {
	var cs units.SquareMillimeters
	for _, i := range cables {
		cs += p.Cables[i].Spec.CrossSection()
	}
	cs = units.SquareMillimeters(float64(cs) * packing)
	b := Bundle{CableIdx: cables, Route: p.Cables[cables[0]].Route, CrossSection: cs}
	p.Bundles = append(p.Bundles, b)
	p.Tray.Add(b.Route, b.CrossSection)
}

// Summary aggregates a plan for reports.
type Summary struct {
	Cables       int                `json:"cables"`
	Bundles      int                `json:"bundles"` // multi-cable bundles only
	Singletons   int                `json:"singletons"`
	TotalLength  units.Meters       `json:"total_length_m"`
	MeanLength   units.Meters       `json:"mean_length_m"`
	MaxLength    units.Meters       `json:"max_length_m"`
	MaterialCost units.USD          `json:"material_cost_usd"`
	Power        units.Watts        `json:"power_w"`
	ByClass      map[MediaClass]int `json:"by_class,omitempty"`
	OpticalFrac  float64            `json:"optical_frac"` // fraction of cables that are AOC or fiber
	PeakTrayUtil float64            `json:"peak_tray_util"`
}

// Summarize computes plan-level aggregates.
func (p *Plan) Summarize() Summary {
	s := Summary{ByClass: map[MediaClass]int{}}
	for _, c := range p.Cables {
		s.Cables++
		s.TotalLength += c.Length()
		if c.Length() > s.MaxLength {
			s.MaxLength = c.Length()
		}
		s.MaterialCost += c.Spec.Cost(c.Length())
		s.Power += c.Spec.Power()
		s.ByClass[c.Spec.Class]++
	}
	for _, b := range p.Bundles {
		if len(b.CableIdx) > 1 {
			s.Bundles++
		} else {
			s.Singletons++
		}
	}
	if s.Cables > 0 {
		s.MeanLength = s.TotalLength / units.Meters(s.Cables)
		s.OpticalFrac = float64(s.ByClass[MediaAOC]+s.ByClass[MediaFiber]) / float64(s.Cables)
	}
	s.PeakTrayUtil = p.Tray.PeakUtilization()
	return s
}

// BundleabilityScore measures how well a design's cables aggregate into
// pre-buildable bundles: the fraction of cables that travel in a bundle
// of at least MinBundleSize. Jellyfish's unstructured randomness scores low;
// Clos pods and FatClique blocks score high — the §4.2 argument in one
// number.
func (p *Plan) BundleabilityScore() float64 {
	if len(p.Cables) == 0 {
		return 0
	}
	in := 0
	for _, b := range p.Bundles {
		if len(b.CableIdx) >= MinBundleSize {
			in += len(b.CableIdx)
		}
	}
	return float64(in) / float64(len(p.Cables))
}
