// Package twin is the paper's §5.3 digital twin in miniature: a
// declarative entity-relationship model of the physical plant (racks,
// switches, cables, trays, panels, power feeds — in the spirit of MALT),
// a schema that rejects out-of-envelope designs it cannot represent
// (§5.2), a library of physical constraint rules (tray capacity, bend
// radius, rack space, door width, loss budgets, power), and a dry-run
// engine that replays planned changes against the model and prices each
// violation by how late it would otherwise have been caught.
package twin

import (
	"slices"

	"physdep/internal/physerr"
)

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
// (dimensions, capacities, loads) and free-form string tags.
//
// Attr reads an attribute and SetAttr writes one. An entity of a
// vocabulary kind keeps the names of its kind's layout (the kind's
// DefaultSchema requirements, then the optional names the default rules
// read) in a window of floats with a presence bit per slot; FromNetwork
// cuts every window from one slab. Any other name, and every attribute
// of a kind outside the vocabulary, goes to an overflow map made on its
// first write. The first SetAttr fixes the layout, so Kind is fixed from
// then on, as ID and Kind are once the entity is added to a Model: Add
// rejects an entity whose Kind changed after its first SetAttr. No index
// reads the attributes, so they stay writable after Add.
//
// Tags is nil until a caller assigns a map; nothing in the model reads
// it, and MarshalJSON writes nil as {}.
type Entity struct {
	ID   string
	Kind Kind
	Tags map[string]string

	lay   *layout            // nil until the first SetAttr
	vals  []float64          // lay's window: vals[i] holds lay.names[i]
	set   uint8              // bit i: vals[i] has been written
	extra map[string]float64 // names outside lay; nil until one is written
}

// Attr returns a numeric attribute, with ok=false when absent.
func (e *Entity) Attr(name string) (float64, bool) {
	if e.lay != nil {
		if i := e.lay.slot(name); i >= 0 {
			return e.at(i)
		}
	}
	v, ok := e.extra[name]
	return v, ok
}

// SetAttr sets a numeric attribute. The first call fixes the entity's
// layout from its Kind.
func (e *Entity) SetAttr(name string, v float64) {
	if e.lay == nil {
		e.lay = layoutOf(e.Kind)
	}
	if i := e.lay.slot(name); i >= 0 {
		if e.vals == nil {
			e.vals = make([]float64, len(e.lay.names))
		}
		e.vals[i] = v
		e.set |= 1 << i
		return
	}
	if e.extra == nil {
		e.extra = map[string]float64{}
	}
	e.extra[name] = v
}

// at reads layout slot i; the rules name slots by constant.
func (e *Entity) at(i int) (float64, bool) {
	if e.set&(1<<i) == 0 {
		return 0, false
	}
	return e.vals[i], true
}

// attrMap returns a fresh map of every attribute the entity holds.
func (e *Entity) attrMap() map[string]float64 {
	out := make(map[string]float64, len(e.vals)+len(e.extra))
	for i := range e.vals {
		if v, ok := e.at(i); ok {
			out[e.lay.names[i]] = v
		}
	}
	for name, v := range e.extra {
		out[name] = v
	}
	return out
}

// layout is one kind's attribute columns: slot i holds names[i].
type layout struct{ names []string }

// slot returns name's slot, or -1: a scan of at most five names, with no
// hashing.
func (l *layout) slot(name string) int {
	for i, n := range l.names {
		if n == name {
			return i
		}
	}
	return -1
}

// optionalAttrs are the names the default rules read beyond the schema's
// requirements. Each takes a slot after its kind's required names, so a
// fibre cable's loss budget or a conjoined rack's width is no overflow.
var optionalAttrs = map[Kind][]string{
	KindCable: {"loss_budget_db"},
	KindTray:  {"min_bend_mm"},
	KindRack:  {"unit_width_m"},
}

// layouts[k] is vocabulary kind k's layout; otherLayout, with no slots,
// is every other kind's.
var (
	layouts = func() (ls [len(vocabularyKinds)]layout) {
		required := DefaultSchema().Required
		for k, kind := range vocabularyKinds {
			ls[k].names = append(slices.Clip(required[kind]), optionalAttrs[kind]...)
			if len(ls[k].names) > 8 {
				panic("twin: a layout outgrows its 8-bit presence mask")
			}
		}
		return ls
	}()
	otherLayout layout
)

// The slots the rules read; TestLayoutSlots pins each to its name.
const (
	sRackRU, sRackPlenum, sRackWidth, sRackUnitWidth = 0, 1, 2, 3
	sSwitchRU, sSwitchPower                          = 2, 3
	sCableLength, sCableDiameter, sCableBend         = 0, 1, 2
	sCableLossBudget                                 = 4
	sBundleCrossSection                              = 0
	sTrayCapacity, sTrayMinBend                      = 0, 1
	sPanelLoss                                       = 1
	sFeedCapacity                                    = 0
	sDoorWidth                                       = 0
)

// layoutOf returns kind's layout.
func layoutOf(kind Kind) *layout {
	for k, v := range vocabularyKinds {
		if v == kind {
			return &layouts[k]
		}
	}
	return &otherLayout
}

// Relation links two entities with a verb.
type Relation struct {
	From string
	Verb Verb
	To   string
}

// Model is the twin: a set of entities and relations.
//
// Internally every entity is a dense int32 handle: Add appends it to the
// handle store, and relations, the index and the rules work on handles.
// The string API (Entity, Relate, Related, RelatedTo, EntitiesOfKind,
// Relations, MarshalJSON) translates at the boundary; the ID → handle
// map behind it is built on the first string lookup, so a model nobody
// looks an ID up in (FromNetwork's, on the evaluate path) never hashes
// one. The zero Model is an empty twin, ready to use.
//
// The model keeps its live handles in ID order. Add and Remove drop the
// order, and the next index build re-makes it with one string sort;
// relation changes and SetAttr leave it valid, and FromNetwork installs
// it whole, with no comparisons.
//
// Calls build state on first use and cache it in the model: any call
// that looks an ID up (Entity, Add, Relate, Unrelate, Remove, Related,
// RelatedTo) builds the ID map, and the queries (Related, RelatedTo,
// EntitiesOfKind, MarshalJSON, CheckAll and the rules) build the index.
// So a Model is not safe for concurrent use, not even by readers alone.
// Give each goroutine its own model.
type Model struct {
	ids   map[string]int32 // live entity ID → handle; nil until a string lookup needs it
	ents  []*Entity        // handle → entity; nil once removed
	kind  []int32          // handle → kind code
	live  int              // entities added and not removed
	order []int32          // live handles by ID; Add and Remove drop it to nil
	// rels, in insertion order, is the source of truth: schema verb
	// findings, MarshalJSON and Unrelate's first-match all follow it.
	rels  []rel
	kinds symbols[Kind]
	verbs symbols[Verb]
	idx   *index // nil until a query needs it; every mutator drops it
}

// rel is one relation as handles and a verb code.
type rel struct{ from, verb, to int32 }

// The vocabulary physdep emits is interned first, in this order, so the
// rules name kinds and verbs by constant code; any other kind or verb a
// model meets gets the next free code.
var (
	vocabularyKinds = [...]Kind{KindHall, KindRack, KindSwitch, KindCable, KindBundle,
		KindTray, KindPanel, KindPowerFeed, KindDoor}
	vocabularyVerbs = []Verb{VerbContains, VerbConnects, VerbRoutesThrough, VerbFeeds}
)

const (
	kHall int32 = iota
	kRack
	kSwitch
	kCable
	kBundle
	kTray
	kPanel
	kPowerFeed
	kDoor
)

const (
	vContains int32 = iota
	vConnects
	vRoutesThrough
	vFeeds
)

// NewModel returns an empty twin.
func NewModel() *Model { return &Model{} }

// init interns the standard vocabulary and makes the handle store; the
// first Add or query of a zero Model runs it.
func (m *Model) init(entities, relations int) {
	m.ents = make([]*Entity, 0, entities)
	m.kind = make([]int32, 0, entities)
	if relations > 0 { // an unrelated model keeps a nil slice: JSON null
		m.rels = make([]rel, 0, relations)
	}
	for _, k := range vocabularyKinds {
		m.kinds.intern(k)
	}
	for _, v := range vocabularyVerbs {
		m.verbs.intern(v)
	}
}

// idMap returns the live ID → handle map, building it from the handle
// store on the first call.
func (m *Model) idMap() map[string]int32 {
	if m.ids == nil {
		m.ids = make(map[string]int32, m.live)
		for h, e := range m.ents {
			if e != nil {
				m.ids[e.ID] = int32(h)
			}
		}
	}
	return m.ids
}

// Add inserts an entity; duplicate IDs are modeling errors.
func (m *Model) Add(e *Entity) error {
	if e.ID == "" {
		return physerr.OutOfRange("twin: entity with empty ID")
	}
	if _, dup := m.idMap()[e.ID]; dup {
		return physerr.OutOfRange("twin: duplicate entity %q", e.ID)
	}
	if e.lay != nil && e.lay != layoutOf(e.Kind) {
		return physerr.OutOfRange("twin: entity %q changed kind to %q after its first SetAttr", e.ID, e.Kind)
	}
	if m.kinds.names == nil {
		m.init(0, 0)
	}
	m.add(e, m.kinds.intern(e.Kind))
	return nil
}

// add appends e, whose kind has code k and whose ID no live entity
// holds, and returns its handle.
func (m *Model) add(e *Entity, k int32) int32 {
	h := int32(len(m.ents))
	if m.ids != nil {
		m.ids[e.ID] = h
	}
	m.ents = append(m.ents, e)
	m.kind = append(m.kind, k)
	m.live++
	m.order, m.idx = nil, nil
	return h
}

// Entity fetches by ID (nil if absent).
func (m *Model) Entity(id string) *Entity {
	if h, ok := m.idMap()[id]; ok {
		return m.ents[h]
	}
	return nil
}

// Remove deletes an entity and every relation touching it. Its handle
// is retired, never reused.
func (m *Model) Remove(id string) error {
	h, ok := m.idMap()[id]
	if !ok {
		return physerr.OutOfRange("twin: remove of unknown entity %q", id)
	}
	delete(m.ids, id)
	m.ents[h] = nil
	m.live--
	kept := m.rels[:0]
	for _, r := range m.rels {
		if r.from != h && r.to != h {
			kept = append(kept, r)
		}
	}
	m.rels = kept
	m.order, m.idx = nil, nil
	return nil
}

// Relate records a relation; both endpoints must exist.
func (m *Model) Relate(from string, verb Verb, to string) error {
	ids := m.idMap()
	hf, ok := ids[from]
	if !ok {
		return physerr.OutOfRange("twin: relation from unknown entity %q", from)
	}
	ht, ok := ids[to]
	if !ok {
		return physerr.OutOfRange("twin: relation to unknown entity %q", to)
	}
	m.relate(hf, m.verbs.intern(verb), ht)
	return nil
}

// relate is Relate on live handles and an interned verb.
func (m *Model) relate(from, verb, to int32) {
	m.rels = append(m.rels, rel{from, verb, to})
	m.idx = nil
}

// Unrelate removes the first matching relation (no-op if absent).
func (m *Model) Unrelate(from string, verb Verb, to string) {
	ids := m.idMap()
	hf, okf := ids[from]
	ht, okt := ids[to]
	v := m.verbs.lookup(verb)
	if !okf || !okt || v < 0 {
		return
	}
	for i, r := range m.rels {
		if r == (rel{hf, v, ht}) {
			m.rels = append(m.rels[:i], m.rels[i+1:]...)
			m.idx = nil
			return
		}
	}
}

// Related returns the IDs related from `from` by verb, sorted. The slice
// is the caller's.
func (m *Model) Related(from string, verb Verb) []string {
	h, ok := m.idMap()[from]
	if !ok {
		return nil
	}
	return m.idsOf(m.index().out.list(h, m.verbs.lookup(verb)))
}

// RelatedTo returns the IDs with a verb-relation pointing at `to`,
// sorted. The slice is the caller's.
func (m *Model) RelatedTo(to string, verb Verb) []string {
	h, ok := m.idMap()[to]
	if !ok {
		return nil
	}
	return m.idsOf(m.index().in.list(h, m.verbs.lookup(verb)))
}

// EntitiesOfKind returns all entities of a kind, sorted by ID for
// deterministic rule output. The slice is the caller's; the entities are
// the model's own.
func (m *Model) EntitiesOfKind(k Kind) []*Entity {
	return m.entitiesOf(m.index().ofKind(m.kinds.lookup(k)))
}

// NumEntities returns the entity count.
func (m *Model) NumEntities() int { return m.live }

// NumRelations returns the relation count.
func (m *Model) NumRelations() int { return len(m.rels) }

// Relations returns a copy of all relations, in insertion order: nil
// for a model that never held one, which MarshalJSON writes as null.
func (m *Model) Relations() []Relation {
	if m.rels == nil {
		return nil
	}
	out := make([]Relation, len(m.rels))
	for i, r := range m.rels {
		out[i] = Relation{From: m.ents[r.from].ID, Verb: m.verbs.names[r.verb], To: m.ents[r.to].ID}
	}
	return out
}

// idsOf and entitiesOf translate a handle list; both return nil for an
// empty one.
func (m *Model) idsOf(hs []int32) []string {
	if len(hs) == 0 {
		return nil
	}
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = m.ents[h].ID
	}
	return out
}

func (m *Model) entitiesOf(hs []int32) []*Entity {
	if len(hs) == 0 {
		return nil
	}
	out := make([]*Entity, len(hs))
	for i, h := range hs {
		out[i] = m.ents[h]
	}
	return out
}

// symbols interns names to dense codes: code c is names[c].
type symbols[T ~string] struct {
	codes map[T]int32
	names []T
}

func (s *symbols[T]) intern(name T) int32 {
	if c, ok := s.codes[name]; ok {
		return c
	}
	if s.codes == nil {
		s.codes = map[T]int32{}
	}
	c := int32(len(s.names))
	s.codes[name] = c
	s.names = append(s.names, name)
	return c
}

// lookup returns name's code, or -1 if the model never met it.
func (s *symbols[T]) lookup(name T) int32 {
	if c, ok := s.codes[name]; ok {
		return c
	}
	return -1
}
