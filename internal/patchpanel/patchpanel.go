// Package patchpanel models the indirection devices the paper's §4.1 case
// study credits with making live networks evolvable: passive patch panels
// (rewired by technicians) and slow optical circuit switches (rewired by
// software). Both are port-mapping devices with an insertion loss; the
// difference that matters for deployability is who moves the connection
// and how long it takes, which the deploy and lifecycle layers charge
// accordingly.
package patchpanel

import (
	"fmt"

	"physdep/internal/units"
)

// Kind distinguishes manual panels from software-driven OCSes.
type Kind int

const (
	// PanelKind is a passive patch panel: reconnection is a human jumper
	// move on the datacenter floor.
	PanelKind Kind = iota
	// OCSKind is an optical circuit switch: reconnection is a software
	// action (Telescent-class devices take minutes, not hours, and nobody
	// walks anywhere).
	OCSKind
)

func (k Kind) String() string {
	switch k {
	case PanelKind:
		return "patch-panel"
	case OCSKind:
		return "ocs"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Device is one panel or OCS: Ports front ports and Ports back ports, with
// a (partial) one-to-one mapping between them.
type Device struct {
	Name  string
	Kind  Kind
	Ports int
	Loss  units.DB // insertion loss per pass (paper cites 0.5–1.0 dB)

	frontTo []int // front i -> back port, -1 if unconnected
	backTo  []int // back j -> front port, -1 if unconnected
}

// New returns an unconnected device. Typical losses: 0.5 dB for a panel,
// 1.0 dB for an OCS.
func New(kind Kind, name string, ports int, loss units.DB) *Device {
	d := &Device{Name: name, Kind: kind, Ports: ports, Loss: loss,
		frontTo: make([]int, ports), backTo: make([]int, ports)}
	for i := range d.frontTo {
		d.frontTo[i] = -1
		d.backTo[i] = -1
	}
	return d
}

// Connect jumpers front port f to back port b. Both must be free.
func (d *Device) Connect(f, b int) error {
	if err := d.checkPort(f); err != nil {
		return err
	}
	if err := d.checkPort(b); err != nil {
		return err
	}
	if d.frontTo[f] != -1 {
		return fmt.Errorf("%s %s: front port %d already connected to back %d", d.Kind, d.Name, f, d.frontTo[f])
	}
	if d.backTo[b] != -1 {
		return fmt.Errorf("%s %s: back port %d already connected to front %d", d.Kind, d.Name, b, d.backTo[b])
	}
	d.frontTo[f] = b
	d.backTo[b] = f
	return nil
}

// Disconnect removes the jumper on front port f, returning the back port
// it was connected to.
func (d *Device) Disconnect(f int) (int, error) {
	if err := d.checkPort(f); err != nil {
		return -1, err
	}
	b := d.frontTo[f]
	if b == -1 {
		return -1, fmt.Errorf("%s %s: front port %d not connected", d.Kind, d.Name, f)
	}
	d.frontTo[f] = -1
	d.backTo[b] = -1
	return b, nil
}

// BackOf returns the back port front f maps to, or -1.
func (d *Device) BackOf(f int) int { return d.frontTo[f] }

// FrontOf returns the front port back b maps to, or -1.
func (d *Device) FrontOf(b int) int { return d.backTo[b] }

// Mapping returns a copy of the front→back map.
func (d *Device) Mapping() []int { return append([]int(nil), d.frontTo...) }

// Connected returns how many jumpers are installed.
func (d *Device) Connected() int {
	n := 0
	for _, b := range d.frontTo {
		if b != -1 {
			n++
		}
	}
	return n
}

func (d *Device) checkPort(p int) error {
	if p < 0 || p >= d.Ports {
		return fmt.Errorf("%s %s: port %d out of range [0,%d)", d.Kind, d.Name, p, d.Ports)
	}
	return nil
}

// StepOp is one reconfiguration action.
type StepOp int

const (
	OpDisconnect StepOp = iota
	OpConnect
)

// Step is one jumper action in a reconfiguration plan.
type Step struct {
	Op    StepOp
	Front int
	Back  int // target back port for OpConnect; previous back for OpDisconnect
}

// Plan is an ordered reconfiguration: executing steps in order never
// double-books a back port, so a technician (or the OCS firmware) can
// apply it as written against a live device.
type Plan struct {
	Steps []Step
	// Moves counts live jumper relocations: fronts that were connected
	// and end on a different back. These touch in-service links — the
	// quantity Zhao et al.'s minimal-rewiring work drives down.
	Moves int
	// NewConnects counts fronts going from unconnected to connected —
	// greenfield work, cheap and safe.
	NewConnects int
	// Removals counts fronts going from connected to unconnected.
	Removals int
	// Parks counts extra cycle-breaking disconnects that had to happen
	// before a target back freed up — pure overhead.
	Parks int
}

// PlanReconfigure computes an ordered plan taking the device from its
// current mapping to target (target[f] = desired back port or -1).
// Fronts already on their target are untouched — the plan is minimal in
// jumper moves; parks are added only when a dependency cycle forces one.
func (d *Device) PlanReconfigure(target []int) (*Plan, error) {
	if len(target) != d.Ports {
		return nil, fmt.Errorf("%s %s: target has %d entries, want %d", d.Kind, d.Name, len(target), d.Ports)
	}
	// Validate target is injective on non-(-1) entries.
	used := make([]bool, d.Ports)
	for f, b := range target {
		if b == -1 {
			continue
		}
		if b < 0 || b >= d.Ports {
			return nil, fmt.Errorf("%s %s: target back %d for front %d out of range", d.Kind, d.Name, b, f)
		}
		if used[b] {
			return nil, fmt.Errorf("%s %s: target maps two fronts to back %d", d.Kind, d.Name, b)
		}
		used[b] = true
	}
	cur := d.Mapping()
	curBack := make([]int, d.Ports) // back -> front under simulation
	for i := range curBack {
		curBack[i] = -1
	}
	for f, b := range cur {
		if b != -1 {
			curBack[b] = f
		}
	}
	plan := &Plan{}
	// pending[f] holds until front f is settled; left counts the fronts
	// still pending.
	pending := make([]bool, d.Ports)
	left := 0
	for f := range target {
		if cur[f] != target[f] {
			pending[f] = true
			left++
			switch {
			case target[f] == -1:
				plan.Removals++
			case cur[f] == -1:
				plan.NewConnects++
			default:
				plan.Moves++
			}
		}
	}
	disconnect := func(f int) {
		b := cur[f]
		plan.Steps = append(plan.Steps, Step{Op: OpDisconnect, Front: f, Back: b})
		curBack[b] = -1
		cur[f] = -1
	}
	settle := func(f int) {
		if pending[f] {
			pending[f] = false
			left--
		}
	}
	connect := func(f, b int) {
		plan.Steps = append(plan.Steps, Step{Op: OpConnect, Front: f, Back: b})
		cur[f] = b
		curBack[b] = f
		settle(f)
	}
	for left > 0 {
		progressed := false
		// Deterministic sweep: lowest front first.
		for f := 0; f < d.Ports; f++ {
			if !pending[f] {
				continue
			}
			tb := target[f]
			if tb == -1 {
				disconnect(f)
				settle(f)
				progressed = true
				continue
			}
			if curBack[tb] == -1 {
				if cur[f] != -1 {
					disconnect(f)
				}
				connect(f, tb)
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Every pending front's target back is occupied by another pending
		// front: a cycle. Park the lowest pending front to break it.
		for f := 0; f < d.Ports; f++ {
			if pending[f] && cur[f] != -1 {
				disconnect(f)
				plan.Parks++
				progressed = true
				break
			}
		}
		if !progressed {
			return nil, fmt.Errorf("%s %s: reconfiguration deadlock (bug)", d.Kind, d.Name)
		}
	}
	return plan, nil
}

// Apply executes a plan against the device.
func (d *Device) Apply(p *Plan) error {
	for i, s := range p.Steps {
		switch s.Op {
		case OpDisconnect:
			if _, err := d.Disconnect(s.Front); err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
		case OpConnect:
			if err := d.Connect(s.Front, s.Back); err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
		default:
			return fmt.Errorf("step %d: unknown op %d", i, s.Op)
		}
	}
	return nil
}
