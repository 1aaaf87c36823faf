package twin

import (
	"slices"
	"strings"
)

// index answers the rules' queries without scanning the model. It is
// built lazily from the entity map and the relation slice, and dropped by
// every mutator rather than maintained: building the model (FromNetwork)
// only mutates, so it pays nothing, and a check pays one build. It is
// never handed out: the public queries copy from it.
type index struct {
	out    adjacency          // (from, verb) → sorted to
	in     adjacency          // (to, verb) → sorted from
	sorted []*Entity          // every entity, by ID
	byKind map[Kind][]*Entity // by ID within a kind
}

// relKey names one adjacency list: an entity ID and a verb.
type relKey struct {
	id   string
	verb Verb
}

// index returns the model's index, building it if a mutation dropped it:
// one pass over the relations and one over the entities, plus sorts, so
// O(R log R + E log E).
func (m *Model) index() *index {
	if m.idx != nil {
		return m.idx
	}
	x := &index{
		out:    newAdjacency(m.relations, false),
		in:     newAdjacency(m.relations, true),
		byKind: map[Kind][]*Entity{},
	}
	// Appending to nil keeps an empty model's list nil, which MarshalJSON
	// writes as null, as it always has.
	for _, e := range m.entities {
		x.sorted = append(x.sorted, e)
	}
	slices.SortFunc(x.sorted, func(a, b *Entity) int { return strings.Compare(a.ID, b.ID) })
	for _, e := range x.sorted {
		x.byKind[e.Kind] = append(x.byKind[e.Kind], e)
	}
	m.idx = x
	return x
}

// out, in and ofKind are the non-copying forms of Related, RelatedTo and
// EntitiesOfKind, for the rules and the schema check. Callers must not
// modify the returned slices.
func (m *Model) out(from string, verb Verb) []string { return m.index().out.get(relKey{from, verb}) }
func (m *Model) in(to string, verb Verb) []string    { return m.index().in.get(relKey{to, verb}) }
func (m *Model) ofKind(k Kind) []*Entity             { return m.index().byKind[k] }

// allEntitiesSorted returns every entity by ID; callers must not modify it.
func (m *Model) allEntitiesSorted() []*Entity { return m.index().sorted }

// adjacency holds one sorted ID list per (entity, verb) key, packed into
// a single array: list g is others[bounds[g]:bounds[g+1]].
type adjacency struct {
	group  map[relKey]int32
	bounds []int32
	others []string
}

// newAdjacency lists, for every (From, Verb) key — (To, Verb) if byTo —
// the other ends of its relations, sorted with duplicates kept: what a
// scan of the relation slice followed by sort.Strings returns.
func newAdjacency(rels []Relation, byTo bool) adjacency {
	ends := func(r Relation) (key, other string) {
		if byTo {
			return r.To, r.From
		}
		return r.From, r.To
	}
	a := adjacency{group: map[relKey]int32{}, others: make([]string, len(rels))}
	gid := make([]int32, len(rels))
	var size []int32
	for i, r := range rels {
		id, _ := ends(r)
		k := relKey{id, r.Verb}
		g, ok := a.group[k]
		if !ok {
			g = int32(len(size))
			a.group[k] = g
			size = append(size, 0)
		}
		size[g]++
		gid[i] = g
	}
	a.bounds = make([]int32, len(size)+1)
	for g, n := range size {
		a.bounds[g+1] = a.bounds[g] + n
	}
	next := size // reused as each list's fill cursor
	copy(next, a.bounds)
	for i, r := range rels {
		_, other := ends(r)
		a.others[next[gid[i]]] = other
		next[gid[i]]++
	}
	for g := range size {
		slices.Sort(a.list(g))
	}
	return a
}

// list returns list g, capacity-capped so an append cannot spill into
// its neighbour.
func (a adjacency) list(g int) []string {
	lo, hi := a.bounds[g], a.bounds[g+1]
	return a.others[lo:hi:hi]
}

// get returns the list for k, nil if k has no relations.
func (a adjacency) get(k relKey) []string {
	g, ok := a.group[k]
	if !ok {
		return nil
	}
	return a.list(int(g))
}
