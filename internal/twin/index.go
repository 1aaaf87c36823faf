package twin

import (
	"slices"
	"strings"
)

// index answers the rules' queries without scanning the model. It is
// built lazily from the handle store and the relation slice, and dropped
// by every mutator rather than maintained: building the model
// (FromNetwork) only mutates, so it pays nothing, and a check pays one
// build. It is never handed out: the public queries copy from it.
//
// Every list holds handles in ID order, the order sort.Strings gives
// the IDs themselves: the model's kept order ranks the live entities,
// and counting sorts on those ranks order everything else.
type index struct {
	// Kind k's handles, by ID, are byKind[kindEnd[k-1]:kindEnd[k]]
	// (from 0 for k = 0): a counting sort of the kept order by kind code.
	byKind, kindEnd []int32
	out, in         adjacency // (from, verb) → to; (to, verb) → from
}

// index returns the model's index, building it if a mutation dropped it,
// in O(E log E + R + H·V) for E live entities, R relations, H handles
// and V verbs; the E log E string sort only if Add or Remove dropped the
// kept order too.
func (m *Model) index() *index {
	if m.idx != nil {
		return m.idx
	}
	if m.kinds.names == nil {
		m.init(0, 0)
	}
	if m.order == nil {
		m.sortOrder()
	}
	x := &index{}
	rank := make([]int32, len(m.ents)) // retired handles keep rank 0; no relation names them
	for i, h := range m.order {
		rank[h] = int32(i)
	}

	x.byKind, x.kindEnd = make([]int32, len(m.order)), make([]int32, len(m.kinds.names))
	for _, h := range m.order {
		x.kindEnd[m.kind[h]]++
	}
	toStarts(x.kindEnd)
	for _, h := range m.order {
		k := m.kind[h]
		x.byKind[x.kindEnd[k]] = h
		x.kindEnd[k]++
	}

	nv := int32(len(m.verbs.names))
	s := adjScratch{byRank: make([]entry, len(m.rels)), ranks: make([]int32, len(m.order))}
	x.out = newAdjacency(m.rels, rank, nv, len(m.ents), false, s)
	x.in = newAdjacency(m.rels, rank, nv, len(m.ents), true, s)
	m.idx = x
	return x
}

// sortOrder rebuilds the kept order with one string sort of the live IDs.
func (m *Model) sortOrder() {
	type keyed struct {
		id string
		h  int32
	}
	live := make([]keyed, 0, m.live)
	for h, e := range m.ents {
		if e != nil {
			live = append(live, keyed{e.ID, int32(h)})
		}
	}
	slices.SortFunc(live, func(a, b keyed) int { return strings.Compare(a.id, b.id) })
	m.order = make([]int32, len(live))
	for i, k := range live {
		m.order[i] = k.h
	}
}

// toStarts turns per-key counts into each key's first position in a
// stable counting sort. Filling the sort then advances each key's
// cursor from its run's start to its run's end.
func toStarts(counts []int32) {
	var sum int32
	for k, c := range counts {
		counts[k] = sum
		sum += c
	}
}

// ofKind lists kind code k's handles by ID; nil for a kind the model
// never met (k < 0).
func (x *index) ofKind(k int32) []int32 {
	if k < 0 {
		return nil
	}
	lo := int32(0)
	if k > 0 {
		lo = x.kindEnd[k-1]
	}
	return x.byKind[lo:x.kindEnd[k]:x.kindEnd[k]]
}

// adjacency holds one ID-ordered handle list per (handle, verb) group,
// packed into a single array: group g = handle·V + verb ends at end[g].
type adjacency struct {
	nv     int32
	others []int32
	end    []int32
}

// entry is one relation seen from one end: its (handle, verb) group and
// the handle at the other end.
type entry struct{ group, other int32 }

// adjScratch is the working memory the two directions' builds share.
type adjScratch struct {
	byRank []entry // one per relation
	ranks  []int32 // one per live entity
}

// newAdjacency lists each relation under its (from, verb) group, or its
// (to, verb) group if byTo, with two stable counting sorts: first by the
// other end's rank, then by group. Each list so comes out in ID order
// with duplicates kept: what a scan of the relations followed by
// sort.Strings returns.
func newAdjacency(rels []rel, rank []int32, nv int32, handles int, byTo bool, s adjScratch) adjacency {
	ends := func(r rel) (key, other int32) {
		if byTo {
			return r.to, r.from
		}
		return r.from, r.to
	}
	clear(s.ranks)
	for _, r := range rels {
		_, o := ends(r)
		s.ranks[rank[o]]++
	}
	toStarts(s.ranks)
	for _, r := range rels {
		k, o := ends(r)
		at := &s.ranks[rank[o]]
		s.byRank[*at] = entry{k*nv + r.verb, o}
		*at++
	}
	a := adjacency{nv: nv, others: make([]int32, len(rels)), end: make([]int32, handles*int(nv))}
	for _, e := range s.byRank {
		a.end[e.group]++
	}
	toStarts(a.end)
	for _, e := range s.byRank {
		a.others[a.end[e.group]] = e.other
		a.end[e.group]++
	}
	return a
}

// list returns handle h's list for verb code v, capacity-capped so an
// append cannot spill into its neighbour; nil for a verb the model never
// met (v < 0).
func (a adjacency) list(h, v int32) []int32 {
	if v < 0 {
		return nil
	}
	g := h*a.nv + v
	lo := int32(0)
	if g > 0 {
		lo = a.end[g-1]
	}
	return a.others[lo:a.end[g]:a.end[g]]
}
