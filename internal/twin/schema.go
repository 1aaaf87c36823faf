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
	x := m.index()
	for k, kind := range vocabularyKinds { // k is kind's code
		required := s.Required[kind]
		// The layout slots of kind's requirements: an entity with every
		// one set needs no name lookup. A requirement outside the layout
		// (a custom schema's) can only be in the overflow.
		var need uint8
		inLayout := true
		for _, attr := range required {
			if i := layouts[k].slot(attr); i >= 0 {
				need |= 1 << i
			} else {
				inLayout = false
			}
		}
		for _, h := range x.ofKind(int32(k)) {
			e := m.ents[h]
			if inLayout && e.set&need == need {
				continue
			}
			for _, attr := range required {
				if _, ok := e.Attr(attr); !ok {
					vs = append(vs, Violation{Rule: "schema:required-attr", EntityID: e.ID,
						Severity: SevError,
						Detail:   fmt.Sprintf("%s missing required attribute %q", e.Kind, attr)})
				}
			}
		}
	}
	// Unknown kinds: walk all entities and flag kinds outside Required.
	known := make([]bool, len(m.kinds.names))
	for k, name := range m.kinds.names {
		_, known[k] = s.Required[name]
	}
	for _, h := range m.order {
		if e := m.ents[h]; !known[m.kind[h]] {
			vs = append(vs, Violation{Rule: "schema:unknown-kind", EntityID: e.ID,
				Severity: SevError,
				Detail:   fmt.Sprintf("kind %q is outside the capability envelope", e.Kind)})
		}
	}
	// The verb rule as one table. col numbers the C kind codes that the
	// pairs of the model's verbs name, and is -1 for every other kind; a
	// kind the model never met has no code and matches no entity. Then
	// allowed[(v·C + col[from])·C + col[to]] says verb code v may link
	// the two: V·C² bools, however many kinds the model holds.
	col := make([]int32, len(m.kinds.names))
	for k := range col {
		col[k] = -1
	}
	var nc int32
	for _, verb := range m.verbs.names {
		for _, pair := range s.AllowedVerbs[verb] {
			for _, kind := range pair {
				if k := m.kinds.lookup(kind); k >= 0 && col[k] < 0 {
					col[k], nc = nc, nc+1
				}
			}
		}
	}
	allowed := make([]bool, int32(len(m.verbs.names))*nc*nc)
	for v, verb := range m.verbs.names {
		for _, pair := range s.AllowedVerbs[verb] {
			if from, to := m.kinds.lookup(pair[0]), m.kinds.lookup(pair[1]); from >= 0 && to >= 0 {
				allowed[(int32(v)*nc+col[from])*nc+col[to]] = true
			}
		}
	}
	for _, r := range m.rels {
		cf, ct := col[m.kind[r.from]], col[m.kind[r.to]]
		if cf < 0 || ct < 0 || !allowed[(r.verb*nc+cf)*nc+ct] {
			from, to := m.ents[r.from], m.ents[r.to]
			vs = append(vs, Violation{Rule: "schema:verb", EntityID: from.ID,
				Severity: SevError,
				Detail: fmt.Sprintf("%s %s %s (%s→%s) is not representable",
					from.ID, m.verbs.names[r.verb], to.ID, from.Kind, to.Kind)})
		}
	}
	return vs
}
