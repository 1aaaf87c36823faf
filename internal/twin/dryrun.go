package twin

import (
	"fmt"

	"physdep/internal/units"
)

// Stage is when a problem is detected in a deployment's life. The later
// the stage, the more physical world there is to unwind (§5.3: "the
// costs to remediate mistakes increase dramatically if we only discover
// them late").
type Stage int

const (
	StageDesign   Stage = iota // caught on the twin, nothing built
	StagePlanning              // caught after materials ordered
	StageInstall               // caught mid-install on the floor
	StageLive                  // caught in a serving network
)

var stageNames = [...]string{"design", "planning", "install", "live"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// RemediationMultiplier is the canonical escalation curve: fixing a
// mistake costs this multiple of its design-stage fix.
func RemediationMultiplier(s Stage) float64 {
	switch s {
	case StageDesign:
		return 1
	case StagePlanning:
		return 3
	case StageInstall:
		return 10
	case StageLive:
		return 30
	}
	return 30
}

// RemediationCost prices fixing one violation detected at the given
// stage, from the base (design-stage) cost.
func RemediationCost(base units.USD, s Stage) units.USD {
	return units.USD(float64(base) * RemediationMultiplier(s))
}

// OpKind is a change-plan action against the twin.
type OpKind int

const (
	OpAdd OpKind = iota
	OpRemove
	OpRelate
	OpUnrelate
	OpSetAttr
)

// Op is one planned change.
type Op struct {
	Kind   OpKind
	Entity *Entity // OpAdd
	ID     string  // OpRemove, OpSetAttr
	From   string  // OpRelate/OpUnrelate
	Verb   Verb
	To     string
	Attr   string  // OpSetAttr
	Value  float64 // OpSetAttr
}

// DryRunResult is the outcome of replaying a change plan on the twin.
type DryRunResult struct {
	// ViolationsAfterStep[i] holds the *new* violations introduced by
	// step i (relative to the cumulative set before it).
	ViolationsAfterStep [][]Violation
	// Final is the complete violation set at the end.
	Final []Violation
	// FirstBadStep is the index of the first step that introduced a
	// violation, or -1.
	FirstBadStep int
}

// DryRun applies ops to the model in place (pass a scratch model — e.g.
// rebuild one from the same source — when the original must survive),
// checking schema+rules after every step and attributing new violations
// to the step that introduced them. Apply errors (unknown entities etc.)
// abort with an error: the plan is not even well formed.
func DryRun(m *Model, s *Schema, rules []Rule, ops []Op) (*DryRunResult, error) {
	res := &DryRunResult{FirstBadStep: -1}
	seen := map[string]bool{}
	for _, v := range CheckAll(m, s, rules) {
		seen[v.String()] = true
	}
	for i, op := range ops {
		if err := applyOp(m, op); err != nil {
			return nil, fmt.Errorf("twin: dry-run step %d: %w", i, err)
		}
		all := CheckAll(m, s, rules)
		var fresh []Violation
		for _, v := range all {
			if !seen[v.String()] {
				fresh = append(fresh, v)
				seen[v.String()] = true
			}
		}
		res.ViolationsAfterStep = append(res.ViolationsAfterStep, fresh)
		if len(fresh) > 0 && res.FirstBadStep == -1 {
			res.FirstBadStep = i
		}
		res.Final = all
	}
	if len(ops) == 0 {
		res.Final = CheckAll(m, s, rules)
	}
	return res, nil
}

func applyOp(m *Model, op Op) error {
	switch op.Kind {
	case OpAdd:
		return m.Add(op.Entity)
	case OpRemove:
		return m.Remove(op.ID)
	case OpRelate:
		return m.Relate(op.From, op.Verb, op.To)
	case OpUnrelate:
		m.Unrelate(op.From, op.Verb, op.To)
		return nil
	case OpSetAttr:
		e := m.Entity(op.ID)
		if e == nil {
			return fmt.Errorf("set attr on unknown entity %q", op.ID)
		}
		e.SetAttr(op.Attr, op.Value)
		return nil
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// SavingsReport compares catching a violation set on the twin (design
// stage) against catching it at a later stage without a twin.
type SavingsReport struct {
	Violations   int
	TwinCost     units.USD // all caught at design stage
	NoTwinCost   units.USD // all caught at lateStage
	SavingsRatio float64
}

// Savings prices a violation list under both regimes.
func Savings(violations []Violation, basePerViolation units.USD, lateStage Stage) SavingsReport {
	n := len(violations)
	r := SavingsReport{
		Violations: n,
		TwinCost:   units.USD(float64(n)) * RemediationCost(basePerViolation, StageDesign),
		NoTwinCost: units.USD(float64(n)) * RemediationCost(basePerViolation, lateStage),
	}
	if r.TwinCost > 0 {
		r.SavingsRatio = float64(r.NoTwinCost) / float64(r.TwinCost)
	}
	return r
}
