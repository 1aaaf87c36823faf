package twin

import "fmt"

// Schema pins what the deployment automation can represent: the closed
// set of entity kinds, the numeric attributes each kind must carry, and
// which verb may connect which kinds. Anything a schema check rejects is
// out of the capability envelope (§5.2): the automation would need
// software changes before such a design could even be described, which is
// precisely the early warning the paper says declarative models buy.
type Schema struct {
	// Required lists mandatory numeric attributes per kind.
	Required map[Kind][]string
	// AllowedVerbs maps verb → permitted (from-kind, to-kind) pairs.
	AllowedVerbs map[Verb][][2]Kind
}

// DefaultSchema describes the modeling vocabulary the rest of physdep
// emits.
func DefaultSchema() *Schema {
	return &Schema{
		Required: map[Kind][]string{
			KindHall:      {"rows", "racks_per_row"},
			KindRack:      {"ru_capacity", "plenum_mm2", "width_m"},
			KindSwitch:    {"radix", "rate_gbps", "ru", "power_w"},
			KindCable:     {"length_m", "diameter_mm", "bend_radius_mm", "rate_gbps"},
			KindBundle:    {"cross_section_mm2"},
			KindTray:      {"capacity_mm2"},
			KindPanel:     {"ports", "loss_db"},
			KindPowerFeed: {"capacity_w"},
			KindDoor:      {"width_m"},
		},
		AllowedVerbs: map[Verb][][2]Kind{
			VerbContains: {
				{KindHall, KindRack}, {KindRack, KindSwitch}, {KindBundle, KindCable},
			},
			VerbConnects: {
				{KindCable, KindSwitch}, {KindCable, KindPanel},
			},
			VerbRoutesThrough: {
				{KindCable, KindTray}, {KindBundle, KindTray}, {KindCable, KindPanel},
			},
			VerbFeeds: {
				{KindPowerFeed, KindRack},
			},
		},
	}
}

// Severity grades violations.
type Severity int

const (
	SevWarning Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Violation is one finding from a schema or rule check.
type Violation struct {
	Rule     string
	EntityID string
	Severity Severity
	Detail   string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s: %s", v.Severity, v.Rule, v.EntityID, v.Detail)
}

// Check validates a model against the schema: every entity's kind must be
// known and carry its required attributes; every relation's verb must be
// allowed between the endpoint kinds. Schema violations are errors: the
// design is out of envelope.
func (s *Schema) Check(m *Model) []Violation {
	var vs []Violation
	for _, kind := range []Kind{KindHall, KindRack, KindSwitch, KindCable, KindBundle,
		KindTray, KindPanel, KindPowerFeed, KindDoor} {
		for _, e := range m.ofKind(kind) {
			for _, attr := range s.Required[e.Kind] {
				if _, ok := e.Attr(attr); !ok {
					vs = append(vs, Violation{Rule: "schema:required-attr", EntityID: e.ID,
						Severity: SevError,
						Detail:   fmt.Sprintf("%s missing required attribute %q", e.Kind, attr)})
				}
			}
		}
	}
	// Unknown kinds: walk all entities and flag kinds outside Required.
	for _, e := range m.allEntitiesSorted() {
		if _, known := s.Required[e.Kind]; !known {
			vs = append(vs, Violation{Rule: "schema:unknown-kind", EntityID: e.ID,
				Severity: SevError,
				Detail:   fmt.Sprintf("kind %q is outside the capability envelope", e.Kind)})
		}
	}
	for _, r := range m.relations {
		from, to := m.Entity(r.From), m.Entity(r.To)
		if from == nil || to == nil {
			continue // unreachable through the public API
		}
		allowed := false
		for _, pair := range s.AllowedVerbs[r.Verb] {
			if pair[0] == from.Kind && pair[1] == to.Kind {
				allowed = true
				break
			}
		}
		if !allowed {
			vs = append(vs, Violation{Rule: "schema:verb", EntityID: r.From,
				Severity: SevError,
				Detail: fmt.Sprintf("%s %s %s (%s→%s) is not representable",
					r.From, r.Verb, r.To, from.Kind, to.Kind)})
		}
	}
	return vs
}
