// Package twin is the paper's §5.3 digital twin in miniature: a
// declarative entity-relationship model of the physical plant (racks,
// switches, cables, trays, panels, power feeds — in the spirit of MALT),
// a schema that rejects out-of-envelope designs it cannot represent
// (§5.2), a library of physical constraint rules (tray capacity, bend
// radius, rack space, door width, loss budgets, power), and a dry-run
// engine that replays planned changes against the model and prices each
// violation by how late it would otherwise have been caught.
package twin

import "physdep/internal/physerr"

// Kind classifies entities. The schema pins the closed set of kinds the
// automation understands; a design needing a new kind is, by definition,
// out of the capability envelope until the schema (and the automation
// behind it) is extended.
type Kind string

const (
	KindHall      Kind = "hall"
	KindRack      Kind = "rack"
	KindSwitch    Kind = "switch"
	KindCable     Kind = "cable"
	KindBundle    Kind = "bundle"
	KindTray      Kind = "tray"
	KindPanel     Kind = "panel"
	KindPowerFeed Kind = "powerfeed"
	KindDoor      Kind = "door"
)

// Verb classifies relations.
type Verb string

const (
	VerbContains      Verb = "contains"       // rack contains switch; bundle contains cable
	VerbConnects      Verb = "connects"       // cable connects switch (two relations per cable)
	VerbRoutesThrough Verb = "routes-through" // cable/bundle routes through tray or panel
	VerbFeeds         Verb = "feeds"          // powerfeed feeds rack
)

// Entity is one modeled physical object: typed, with numeric attributes
// (dimensions, capacities, loads) and free-form string tags. Once the
// entity is added to a Model, its ID and Kind are fixed: the model's
// index files it under both. Attrs and Tags stay freely mutable; no
// index reads them.
type Entity struct {
	ID    string
	Kind  Kind
	Attrs map[string]float64
	Tags  map[string]string
}

// Attr returns a numeric attribute, with ok=false when absent.
func (e *Entity) Attr(name string) (float64, bool) {
	v, ok := e.Attrs[name]
	return v, ok
}

// Relation links two entities with a verb.
type Relation struct {
	From string
	Verb Verb
	To   string
}

// Model is the twin: a set of entities and relations.
//
// Queries (Related, RelatedTo, EntitiesOfKind, CheckAll and the rules)
// build an index on first use and cache it in the model, so a Model is
// not safe for concurrent use, not even by readers alone. Give each
// goroutine its own model.
type Model struct {
	entities map[string]*Entity
	// relations, in insertion order, is the source of truth: schema verb
	// findings, MarshalJSON and Unrelate's first-match all follow it.
	relations []Relation
	idx       *index // nil until a query needs it; every mutator drops it
}

// NewModel returns an empty twin.
func NewModel() *Model {
	return &Model{entities: map[string]*Entity{}}
}

// Add inserts an entity; duplicate IDs are modeling errors.
func (m *Model) Add(e *Entity) error {
	if e.ID == "" {
		return physerr.OutOfRange("twin: entity with empty ID")
	}
	if _, dup := m.entities[e.ID]; dup {
		return physerr.OutOfRange("twin: duplicate entity %q", e.ID)
	}
	if e.Attrs == nil {
		e.Attrs = map[string]float64{}
	}
	if e.Tags == nil {
		e.Tags = map[string]string{}
	}
	m.entities[e.ID] = e
	m.idx = nil
	return nil
}

// Entity fetches by ID (nil if absent).
func (m *Model) Entity(id string) *Entity { return m.entities[id] }

// Remove deletes an entity and every relation touching it.
func (m *Model) Remove(id string) error {
	if _, ok := m.entities[id]; !ok {
		return physerr.OutOfRange("twin: remove of unknown entity %q", id)
	}
	delete(m.entities, id)
	kept := m.relations[:0]
	for _, r := range m.relations {
		if r.From != id && r.To != id {
			kept = append(kept, r)
		}
	}
	m.relations = kept
	m.idx = nil
	return nil
}

// Relate records a relation; both endpoints must exist.
func (m *Model) Relate(from string, verb Verb, to string) error {
	if m.entities[from] == nil {
		return physerr.OutOfRange("twin: relation from unknown entity %q", from)
	}
	if m.entities[to] == nil {
		return physerr.OutOfRange("twin: relation to unknown entity %q", to)
	}
	m.relations = append(m.relations, Relation{From: from, Verb: verb, To: to})
	m.idx = nil
	return nil
}

// Unrelate removes the first matching relation (no-op if absent).
func (m *Model) Unrelate(from string, verb Verb, to string) {
	for i, r := range m.relations {
		if r.From == from && r.Verb == verb && r.To == to {
			m.relations = append(m.relations[:i], m.relations[i+1:]...)
			m.idx = nil
			return
		}
	}
}

// Related returns the IDs related from `from` by verb, sorted. The slice
// is the caller's.
func (m *Model) Related(from string, verb Verb) []string {
	return append([]string(nil), m.out(from, verb)...)
}

// RelatedTo returns the IDs with a verb-relation pointing at `to`,
// sorted. The slice is the caller's.
func (m *Model) RelatedTo(to string, verb Verb) []string {
	return append([]string(nil), m.in(to, verb)...)
}

// EntitiesOfKind returns all entities of a kind, sorted by ID for
// deterministic rule output. The slice is the caller's; the entities are
// the model's own.
func (m *Model) EntitiesOfKind(k Kind) []*Entity {
	return append([]*Entity(nil), m.ofKind(k)...)
}

// NumEntities returns the entity count.
func (m *Model) NumEntities() int { return len(m.entities) }

// Relations returns a copy of all relations.
func (m *Model) Relations() []Relation { return append([]Relation(nil), m.relations...) }
