// Package cabling models the part of the network that research
// abstractions hide: the cables. It provides a media catalog (copper DAC,
// active electrical, active optical, and structured fiber with pluggable
// transceivers), feasibility rules (reach, insertion-loss budgets through
// patch panels and OCSes, bend radius), a per-link media selector, and a
// bundling planner in the style of Singh et al.'s pre-built bundles.
package cabling

import (
	"fmt"
	"math"

	"physdep/internal/physerr"
	"physdep/internal/units"
)

// MediaClass groups cable technologies with a shared feasibility shape.
type MediaClass int

const (
	// MediaDAC is passive copper (direct-attach). Cheap, power-free,
	// short reach that shrinks as rates rise, and thick at high rates —
	// the AWS 400G problem.
	MediaDAC MediaClass = iota
	// MediaAEC is active electrical copper: retimers in the connector buy
	// reach and thinner wire at some cost and power. AWS's answer to the
	// 400G intra-rack problem.
	MediaAEC
	// MediaAOC is an active optical cable: fixed transceivers fused to
	// fiber. Long reach, no field termination, but the whole assembly is
	// one failure/replacement unit.
	MediaAOC
	// MediaFiber is structured fiber with separate pluggable transceivers;
	// the only class that can traverse patch panels and OCSes, and the
	// only one with a meaningful insertion-loss budget.
	MediaFiber
)

var mediaClassNames = [...]string{"DAC", "AEC", "AOC", "fiber"}

func (c MediaClass) String() string {
	if int(c) < len(mediaClassNames) {
		return mediaClassNames[c]
	}
	return fmt.Sprintf("mediaclass(%d)", int(c))
}

// Spec describes one orderable cable product (or fiber+transceiver
// pairing) at one line rate.
type Spec struct {
	Name       string
	Class      MediaClass
	Rate       units.Gbps
	MaxLength  units.Meters
	Diameter   units.Millimeters // outer diameter of the jacketed cable
	BendRadius units.Millimeters // minimum safe bend radius

	CostFixed    units.USD // connectors / transceivers, both ends
	CostPerMeter units.USD
	PowerPerEnd  units.Watts

	// LossBudget is the maximum tolerable optical insertion loss end to
	// end. Zero for electrical media (which cannot pass through panels at
	// all).
	LossBudget units.DB

	FITs   float64 // failures per 10⁹ cable-hours, for the repair simulator
	Vendor string
}

// CrossSection returns the jacketed cross-sectional area — the quantity
// that fills trays and rack plenums. The paper's AWS example: 100G DAC at
// 6.7 mm OD vs 400G DAC at 11 mm OD is a 2.7× area increase.
func (s Spec) CrossSection() units.SquareMillimeters {
	r := float64(s.Diameter) / 2
	return units.SquareMillimeters(math.Pi * r * r)
}

// Cost returns the purchase price of one cable cut to the given length.
func (s Spec) Cost(length units.Meters) units.USD {
	return s.CostFixed + units.USD(float64(s.CostPerMeter)*float64(length))
}

// Power returns total electrical power for one cable (both ends).
func (s Spec) Power() units.Watts { return 2 * s.PowerPerEnd }

// PanelCompatible reports whether this media can be routed through patch
// panels or optical circuit switches. Only structured fiber can; DAC,
// AEC, and AOC are point-to-point assemblies.
func (s Spec) PanelCompatible() bool { return s.Class == MediaFiber }

// Optical loss model constants: per mated connector pair and per meter of
// single-mode fiber. Panel and OCS passes add their own losses (the paper
// cites 0.5–1.0 dB per Telescent OCS).
const (
	connectorLoss units.DB = 0.3    // each cable end
	fiberLossPerM units.DB = 0.0004 // ~0.4 dB/km SMF
)

// PathLoss returns the end-to-end insertion loss of a fiber path of the
// given length passing through extraLoss worth of mid-span devices
// (panels, OCSes).
func PathLoss(length units.Meters, extraLoss units.DB) units.DB {
	return 2*connectorLoss + units.DB(float64(fiberLossPerM)*float64(length)) + extraLoss
}

// Catalog is the set of purchasable media, typically one entry per
// (class, rate, vendor).
type Catalog struct {
	Media []Spec
}

// ErrNoMedia is returned (wrapped) when no catalog entry can serve a link.
// It wraps physerr.ErrInfeasibleMedia, so callers may classify with either
// sentinel.
var ErrNoMedia = fmt.Errorf("cabling: %w", physerr.ErrInfeasibleMedia)

// Select returns the cheapest spec that can carry rate over length with
// the given mid-span loss. Electrical media are infeasible whenever
// extraLoss > 0 (they cannot traverse panels). Cost comparison uses the
// concrete cut length.
func (c *Catalog) Select(rate units.Gbps, length units.Meters, extraLoss units.DB) (Spec, error) {
	return c.SelectFiltered(rate, length, extraLoss, nil)
}

// SelectFiltered is Select restricted to specs accepted by keep (nil keeps
// all). The supply-chain layer uses it to exclude vendors.
func (c *Catalog) SelectFiltered(rate units.Gbps, length units.Meters, extraLoss units.DB,
	keep func(Spec) bool) (Spec, error) {
	best := -1
	var bestCost units.USD
	for i, s := range c.Media {
		if s.Rate != rate || length > s.MaxLength {
			continue
		}
		if keep != nil && !keep(s) {
			continue
		}
		if extraLoss > 0 && !s.PanelCompatible() {
			continue
		}
		if s.PanelCompatible() && PathLoss(length, extraLoss) > s.LossBudget {
			continue
		}
		cost := s.Cost(length)
		if best == -1 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best == -1 {
		return Spec{}, fmt.Errorf("%w for %v over %v (+%v loss)", ErrNoMedia, rate, length, extraLoss)
	}
	return c.Media[best], nil
}

// DefaultCatalog returns a catalog seeded from public figures: the AWS
// re:Invent 2022 cable diameters the paper quotes (100G DAC 6.7 mm OD,
// 400G DAC 11 mm OD, AEC thinner than 400G DAC), typical optics pricing
// ratios, and Telescent-class loss numbers. Absolute dollars are
// representative; every experiment reports ratios.
func DefaultCatalog() *Catalog {
	return &Catalog{Media: []Spec{
		// --- 100G ---
		{Name: "100G-DAC", Class: MediaDAC, Rate: 100, MaxLength: 3, Diameter: 6.7,
			BendRadius: 60, CostFixed: 80, CostPerMeter: 10, PowerPerEnd: 0.1,
			FITs: 50, Vendor: "acme"},
		{Name: "100G-AEC", Class: MediaAEC, Rate: 100, MaxLength: 7, Diameter: 5.0,
			BendRadius: 45, CostFixed: 250, CostPerMeter: 15, PowerPerEnd: 2.5,
			FITs: 120, Vendor: "acme"},
		{Name: "100G-AOC", Class: MediaAOC, Rate: 100, MaxLength: 100, Diameter: 3.0,
			BendRadius: 30, CostFixed: 350, CostPerMeter: 2, PowerPerEnd: 3.5,
			FITs: 200, Vendor: "acme"},
		{Name: "100G-FR", Class: MediaFiber, Rate: 100, MaxLength: 2000, Diameter: 2.0,
			BendRadius: 15, CostFixed: 620, CostPerMeter: 0.5, PowerPerEnd: 4.5,
			LossBudget: 4.0, FITs: 250, Vendor: "acme"},
		// --- 400G ---
		{Name: "400G-DAC", Class: MediaDAC, Rate: 400, MaxLength: 2.5, Diameter: 11.0,
			BendRadius: 110, CostFixed: 150, CostPerMeter: 25, PowerPerEnd: 0.1,
			FITs: 60, Vendor: "acme"},
		{Name: "400G-AEC", Class: MediaAEC, Rate: 400, MaxLength: 7, Diameter: 6.7,
			BendRadius: 60, CostFixed: 420, CostPerMeter: 20, PowerPerEnd: 4.0,
			FITs: 150, Vendor: "acme"},
		{Name: "400G-AOC", Class: MediaAOC, Rate: 400, MaxLength: 100, Diameter: 4.0,
			BendRadius: 38, CostFixed: 950, CostPerMeter: 3, PowerPerEnd: 6.0,
			FITs: 260, Vendor: "acme"},
		{Name: "400G-FR4", Class: MediaFiber, Rate: 400, MaxLength: 2000, Diameter: 2.0,
			BendRadius: 15, CostFixed: 1400, CostPerMeter: 0.5, PowerPerEnd: 7.0,
			LossBudget: 4.0, FITs: 300, Vendor: "acme"},
		// --- 40G (legacy generation, for heterogeneity experiments) ---
		{Name: "40G-DAC", Class: MediaDAC, Rate: 40, MaxLength: 5, Diameter: 5.5,
			BendRadius: 50, CostFixed: 50, CostPerMeter: 6, PowerPerEnd: 0.1,
			FITs: 40, Vendor: "acme"},
		{Name: "40G-AOC", Class: MediaAOC, Rate: 40, MaxLength: 100, Diameter: 3.0,
			BendRadius: 30, CostFixed: 180, CostPerMeter: 1.5, PowerPerEnd: 1.5,
			FITs: 180, Vendor: "acme"},
		{Name: "40G-LR4L", Class: MediaFiber, Rate: 40, MaxLength: 1000, Diameter: 2.0,
			BendRadius: 15, CostFixed: 320, CostPerMeter: 0.5, PowerPerEnd: 3.5,
			LossBudget: 4.0, FITs: 220, Vendor: "acme"},
	}}
}

// SecondSourceCatalog returns DefaultCatalog plus a second vendor
// ("bolt") whose parts are slightly worse — shorter reach, a bit more
// loss-hungry, marginally pricier — modeling the paper's §3.3 point that
// fungibility means designing for the second-best part.
func SecondSourceCatalog() *Catalog {
	c := DefaultCatalog()
	alt := make([]Spec, 0, len(c.Media))
	for _, s := range c.Media {
		s.Name += "-B"
		s.Vendor = "bolt"
		s.MaxLength *= 0.85
		s.CostFixed = units.USD(float64(s.CostFixed) * 1.08)
		if s.LossBudget > 0 {
			s.LossBudget -= 0.5
		}
		alt = append(alt, s)
	}
	c.Media = append(c.Media, alt...)
	return c
}
