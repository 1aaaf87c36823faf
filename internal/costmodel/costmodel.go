// Package costmodel centralizes prices and labor-time constants: switch
// and optics capex, technician labor, installation minutes per action,
// first-pass yield, and the stranded-capital model behind the paper's
// "an extra 5 minutes per thing adds up quickly when you have to install
// 10k things" arithmetic. Every constant is a struct field so experiments
// can sweep it; Default() is seeded with representative public figures.
package costmodel

import (
	"physdep/internal/cabling"
	"physdep/internal/physerr"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// Model is the pricing and labor book.
type Model struct {
	// --- Switch capex ---
	SwitchBase    units.USD // chassis, psu, fans
	SwitchPerPort units.USD // per port at 100G; other rates scale linearly with rate
	PortRateBase  units.Gbps

	// --- Indirection devices ---
	PanelCost        units.USD // passive patch panel (per 64 ports)
	OCSCost          units.USD // optical circuit switch (per 64 ports) — far pricier
	PanelPorts       int
	ActivePanelExtra units.USD // premium for "intelligent" panels (§5.1)

	// --- Labor ---
	TechHourly units.USD // loaded technician cost
	// Per-action times. Bundled pulls amortize: one pull for the whole
	// bundle plus a small per-member increment, vs a full pull per cable.
	PullCablePerMeter   units.Minutes // individual cable: minutes per meter pulled
	PullCableFixed      units.Minutes // individual cable: route + dress + label
	PullBundlePerMeter  units.Minutes // pre-built bundle: minutes per meter (whole bundle)
	PullBundleFixed     units.Minutes
	BundlePrefabPerCbl  units.Minutes // off-floor prefab line, per member cable
	ConnectEnd          units.Minutes // seat + verify one connector
	InstallSwitch       units.Minutes // rack, power, boot one switch
	InstallRack         units.Minutes // roll in, level, power one rack
	JumperMove          units.Minutes // patch-panel jumper relocation (§4.3: slow)
	OCSReconfig         units.Minutes // software cross-connect change
	ValidateLink        units.Minutes // automated check per link, tech attendance
	ReworkFailedConnect units.Minutes // diagnose + reseat/replace after failed validation
	WalkMetersPerMinute float64

	// --- Yield ---
	FirstPassYield float64 // P(connection works without rework)

	// --- Stranded capital (§2.3) ---
	ServerCost      units.USD
	ServerLifeYears float64
}

// Default returns the reference model. Absolute values are representative
// of public figures (circa 2023); experiments report ratios and shapes.
func Default() *Model {
	return &Model{
		SwitchBase:    8000,
		SwitchPerPort: 150,
		PortRateBase:  100,

		PanelCost:        1500,
		OCSCost:          60000,
		PanelPorts:       64,
		ActivePanelExtra: 2500,

		TechHourly:          120,
		PullCablePerMeter:   0.30,
		PullCableFixed:      6,
		PullBundlePerMeter:  0.50,
		PullBundleFixed:     15,
		BundlePrefabPerCbl:  1.0,
		ConnectEnd:          2.0,
		InstallSwitch:       30,
		InstallRack:         45,
		JumperMove:          4,
		OCSReconfig:         0.2,
		ValidateLink:        0.5,
		ReworkFailedConnect: 25,
		WalkMetersPerMinute: 60,

		FirstPassYield: 0.985,

		ServerCost:      12000,
		ServerLifeYears: 4,
	}
}

// RobotCrew derives the §2 "what if we want robots to do the work
// instead?" labor book from m: slower per-connection manipulation
// (today's manipulators are careful, not fast), slightly slower
// travel, but far cheaper per hour, near-perfect first-pass yield, and
// no shift limits. Deploy experiments run the same plan under both
// books.
func (m *Model) RobotCrew() *Model {
	r := *m
	r.TechHourly = 35
	r.ConnectEnd *= 1.8
	r.JumperMove *= 1.5
	r.PullCableFixed *= 1.3
	r.PullBundleFixed *= 1.3
	r.WalkMetersPerMinute *= 0.8
	r.FirstPassYield = 0.9995
	r.ReworkFailedConnect *= 2 // robot rework escalates to a human
	return &r
}

// SwitchCapex prices one switch: base plus per-port scaled by line rate.
// A zero-rate node prices its ports at zero — dark ports buy no optics —
// rather than silently billing them at PortRateBase, which is what the
// old clamp did. Negative rates and radixes are malformed input per the
// DESIGN.md §8 contract and return an error wrapping
// physerr.ErrOutOfRange, as does a model whose PortRateBase is not
// positive (the per-port scale would be meaningless).
func (m *Model) SwitchCapex(n topology.Node) (units.USD, error) {
	if m.PortRateBase <= 0 {
		return 0, physerr.OutOfRange("costmodel: PortRateBase must be positive, got %v", m.PortRateBase)
	}
	if n.Rate < 0 {
		return 0, physerr.OutOfRange("costmodel: switch %d has negative rate %v", n.ID, n.Rate)
	}
	if n.Radix < 0 {
		return 0, physerr.OutOfRange("costmodel: switch %d has negative radix %d", n.ID, n.Radix)
	}
	rateFactor := float64(n.Rate) / float64(m.PortRateBase)
	return m.SwitchBase + units.USD(float64(m.SwitchPerPort)*float64(n.Radix)*rateFactor), nil
}

// LaborCost converts technician minutes to dollars.
func (m *Model) LaborCost(mins units.Minutes) units.USD {
	return units.USD(float64(mins) / 60 * float64(m.TechHourly))
}

// StrandedCost prices idle server capital: servers that sit dark for the
// given time because their network isn't up. A server "costs" its
// depreciation whether or not it serves.
func (m *Model) StrandedCost(servers int, idle units.Hours) units.USD {
	perServerHour := float64(m.ServerCost) / (m.ServerLifeYears * 365 * 24)
	return units.USD(perServerHour * float64(servers) * float64(idle))
}

// Capex is an itemized bill of materials for a built network.
type Capex struct {
	Switches units.USD
	Cabling  units.USD // cables, transceivers (from the cabling plan)
	Panels   units.USD // patch panels / OCS units
	Total    units.USD
}

// NetworkCapex itemizes capex for a placed-and-planned network. panels
// and ocses count indirection devices by unit (each PanelPorts ports).
// An invalid node (see SwitchCapex) fails the whole bill.
func (m *Model) NetworkCapex(t *topology.Topology, plan *cabling.Plan, panels, ocses int) (Capex, error) {
	var c Capex
	for _, n := range t.Nodes {
		sw, err := m.SwitchCapex(n)
		if err != nil {
			return Capex{}, err
		}
		c.Switches += sw
	}
	c.Cabling = plan.Summarize().MaterialCost
	c.Panels = units.USD(float64(panels))*m.PanelCost + units.USD(float64(ocses))*m.OCSCost
	c.Total = c.Switches + c.Cabling + c.Panels
	return c, nil
}

// PanelsFor returns how many indirection devices of PanelPorts ports are
// needed to pass through the given number of fibers.
func (m *Model) PanelsFor(fibers int) int {
	if fibers <= 0 {
		return 0
	}
	return (fibers + m.PanelPorts - 1) / m.PanelPorts
}
