package twin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"physdep/internal/cli"
	"physdep/internal/interchange"
)

// The differential tests drive the indexed Model and the scanning
// refModel through the same seeded op sequences and require identical
// answers after every step.

var (
	diffKinds = []Kind{KindHall, KindRack, KindSwitch, KindCable, KindBundle,
		KindTray, KindPanel, KindPowerFeed, KindDoor, Kind("ufo")}
	diffVerbs = []Verb{VerbContains, VerbConnects, VerbRoutesThrough, VerbFeeds, Verb("orbits")}
	// Every attribute a schema requirement or a rule reads.
	diffAttrs = []string{"rows", "racks_per_row", "ru_capacity", "plenum_mm2", "width_m",
		"unit_width_m", "radix", "rate_gbps", "ru", "power_w", "length_m", "diameter_mm",
		"bend_radius_mm", "loss_budget_db", "cross_section_mm2", "capacity_mm2", "min_bend_mm",
		"ports", "loss_db", "capacity_w"}
)

// opGen draws ops against the reference's current contents: fresh and
// duplicate Adds of known and unknown kinds, Relates including self- and
// duplicate relations and unknown verbs, Unrelates of present and absent
// triples, Removes, SetAttrs, and a share of ops naming a missing entity.
type opGen struct {
	rng   *rand.Rand
	fresh int
}

func (g *opGen) draw(ref *refModel) Op {
	ids := make([]string, 0, len(ref.entities))
	for id := range ref.entities {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	pick := func() string {
		if len(ids) == 0 || g.rng.IntN(12) == 0 {
			return "ghost"
		}
		return ids[g.rng.IntN(len(ids))]
	}
	verb := func() Verb { return diffVerbs[g.rng.IntN(len(diffVerbs))] }
	switch g.rng.IntN(10) {
	case 0, 1:
		id := fmt.Sprintf("new-%d", g.fresh)
		g.fresh++
		if g.rng.IntN(8) == 0 {
			id = pick() // duplicate (or, for "ghost", fresh) ID
		}
		e := &Entity{ID: id, Kind: diffKinds[g.rng.IntN(len(diffKinds))]}
		if g.rng.IntN(6) != 0 {
			for _, a := range diffAttrs {
				if g.rng.IntN(3) != 0 {
					e.SetAttr(a, float64(g.rng.IntN(4000))/10)
				}
			}
		}
		return Op{Kind: OpAdd, Entity: e}
	case 2, 3, 4:
		op := Op{Kind: OpRelate, From: pick(), Verb: verb(), To: pick()}
		switch g.rng.IntN(5) {
		case 0:
			op.To = op.From
		case 1:
			if len(ref.relations) > 0 {
				r := ref.relations[g.rng.IntN(len(ref.relations))]
				op.From, op.Verb, op.To = r.From, r.Verb, r.To
			}
		}
		return op
	case 5, 6:
		op := Op{Kind: OpUnrelate, From: pick(), Verb: verb(), To: pick()}
		if len(ref.relations) > 0 && g.rng.IntN(4) != 0 {
			r := ref.relations[g.rng.IntN(len(ref.relations))]
			op.From, op.Verb, op.To = r.From, r.Verb, r.To
		}
		return op
	case 7:
		return Op{Kind: OpRemove, ID: pick()}
	default:
		return Op{Kind: OpSetAttr, ID: pick(), Attr: diffAttrs[g.rng.IntN(len(diffAttrs))],
			Value: float64(g.rng.IntN(4000)) / 10}
	}
}

// copyOp is op with its added entity copied, for a second model.
func copyOp(op Op) Op {
	if op.Entity != nil {
		op.Entity = cloneEntity(op.Entity)
	}
	return op
}

func entityIDs(es []*Entity) []string {
	var ids []string
	for _, e := range es {
		ids = append(ids, e.ID)
	}
	return ids
}

func refEntityIDs(es []*refEntity) []string {
	var ids []string
	for _, e := range es {
		ids = append(ids, e.ID)
	}
	return ids
}

// assertSameQueries compares every public query on m with the reference:
// the MarshalJSON bytes (all entities by ID, the relation slice), entities
// of every kind, and Related/RelatedTo over every verb for each of ids.
func assertSameQueries(t *testing.T, step string, m *Model, ref *refModel, ids []string) {
	t.Helper()
	if m.NumEntities() != len(ref.entities) {
		t.Fatalf("%s: %d entities, reference has %d", step, m.NumEntities(), len(ref.entities))
	}
	got, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refModelJSON{Entities: ref.allEntitiesSorted(), Relations: ref.relations})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON diverges:\n got %s\nwant %s", step, got, want)
	}
	for _, k := range diffKinds {
		if got, want := entityIDs(m.EntitiesOfKind(k)), refEntityIDs(ref.EntitiesOfKind(k)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: EntitiesOfKind(%s) = %v, reference %v", step, k, got, want)
		}
	}
	for _, id := range ids {
		for _, v := range diffVerbs {
			if got, want := m.Related(id, v), ref.Related(id, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Related(%s, %s) = %v, reference %v", step, id, v, got, want)
			}
			if got, want := m.RelatedTo(id, v), ref.RelatedTo(id, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RelatedTo(%s, %s) = %v, reference %v", step, id, v, got, want)
			}
		}
	}
}

func allIDs(ref *refModel) []string {
	ids := make([]string, 0, len(ref.entities)+1)
	for id := range ref.entities {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return append(ids, "ghost")
}

// runDifferential applies steps seeded ops to m and its reference, one
// DryRun per op, and checks after every step that the DryRun result
// (per-step findings, first bad step, final CheckAll) and the queries
// match the reference. Per step it queries the op's endpoints plus
// sample other entities; sample < 0 queries every entity every step.
func runDifferential(t *testing.T, m *Model, seed uint64, steps, sample int) {
	t.Helper()
	schema, rules := DefaultSchema(), DefaultRules()
	ref := newRefModel(m)
	assertSameQueries(t, "start", m, ref, nil)
	before := refCheckAll(ref, schema)
	if got := CheckAll(m, schema, rules); !reflect.DeepEqual(got, before) {
		t.Fatalf("start: CheckAll diverges:\n got %v\nwant %v", got, before)
	}
	g := &opGen{rng: rand.New(rand.NewPCG(seed, 0x7717))}
	applied := 0
	for i := 0; i < steps; i++ {
		op := g.draw(ref)
		step := fmt.Sprintf("seed %d step %d (%+v)", seed, i, op)
		refErr := ref.apply(op)
		res, err := DryRun(m, schema, rules, []Op{op})
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: DryRun err %v, reference err %v", step, err, refErr)
		}
		if err == nil {
			applied++
			after := refCheckAll(ref, schema)
			fresh := freshViolations(before, after)
			if !reflect.DeepEqual(res.Final, after) {
				t.Fatalf("%s: CheckAll diverges:\n got %v\nwant %v", step, res.Final, after)
			}
			if !reflect.DeepEqual(res.ViolationsAfterStep, [][]Violation{fresh}) {
				t.Fatalf("%s: step findings %v, reference %v", step, res.ViolationsAfterStep, fresh)
			}
			want := -1
			if len(fresh) > 0 {
				want = 0
			}
			if res.FirstBadStep != want {
				t.Fatalf("%s: FirstBadStep %d, want %d", step, res.FirstBadStep, want)
			}
			before = after
		}
		ids := []string{op.ID, op.From, op.To}
		if op.Entity != nil {
			ids = append(ids, op.Entity.ID)
		}
		if sample < 0 {
			ids = allIDs(ref)
		} else {
			all := allIDs(ref)
			for j := 0; j < sample; j++ {
				ids = append(ids, all[g.rng.IntN(len(all))])
			}
		}
		assertSameQueries(t, step, m, ref, ids)
	}
	assertSameQueries(t, "end", m, ref, allIDs(ref))
	if applied < steps/3 {
		t.Fatalf("seed %d: only %d of %d ops applied; the generator is mostly drawing malformed ops", seed, applied, steps)
	}
}

// TestIndexMatchesReferenceRandom grows small models from empty, where
// duplicate relations, self-relations and unknown kinds are common.
func TestIndexMatchesReferenceRandom(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 100
	}
	for seed := uint64(1); seed <= 6; seed++ {
		runDifferential(t, NewModel(), seed, steps, -1)
	}
}

// diffFamilies holds one fabric per generator family at evaluate-miss
// sizes (50 to 100 switches; slim fly's next valid q is 13, 338
// switches), placed in the daemon's default 6×16 hall.
var diffFamilies = map[string]cli.TopoParams{
	"fattree":       {Name: "fattree", K: 8, Rate: 100},
	"leafspine":     {Name: "leafspine", N: 64, Spines: 16, Net: 8, Radix: 16, Rate: 100},
	"jellyfish":     benchFabric,
	"xpander":       {Name: "xpander", D: 8, Lift: 8, Radix: 16, Rate: 100, Seed: 1},
	"flatbutterfly": {Name: "flatbutterfly", N: 8, K: 2, Radix: 8, Rate: 100},
	"fatclique":     {Name: "fatclique", D: 4, Lift: 4, K: 4, Radix: 8, Rate: 100},
	"slimfly":       {Name: "slimfly", Q: 5, Radix: 9, Rate: 100},
	"vl2":           {Name: "vl2", D: 16, Lift: 16, Radix: 16, Rate: 100},
	"flatrandom":    {Name: "flatrandom", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1},
	// "file" loads an interchange document; the test writes one from the
	// jellyfish fabric and fills in the path.
	"file": {Name: "file"},
}

// TestIndexMatchesReferenceFromNetwork runs the differential on the twin
// FromNetwork builds for every cli.Families() entry.
func TestIndexMatchesReferenceFromNetwork(t *testing.T) {
	for i, fam := range cli.Families() {
		seed := uint64(100 + i)
		p, ok := diffFamilies[fam]
		if !ok {
			t.Errorf("family %q has no differential case", fam)
			continue
		}
		t.Run(fam, func(t *testing.T) {
			if fam == "file" {
				p.File = writeDocument(t, benchFabric)
			}
			pl, plan := hallFixture(t, p, 6, 16)
			m, err := FromNetwork(pl, plan)
			if err != nil {
				t.Fatal(err)
			}
			// Each step costs two reference checks at O(E×R); the random
			// test above covers the op mix in depth.
			steps := 6
			if testing.Short() {
				steps = 2
			}
			runDifferential(t, m, seed, steps, 16)
		})
	}
}

// writeDocument emits p's fabric as an interchange document in a temp
// directory and returns its path.
func writeDocument(t *testing.T, p cli.TopoParams) string {
	t.Helper()
	topo, err := cli.BuildTopology(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := interchange.FromTopology(topo).Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fabric.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestZeroModelMatchesNewModel: a zero Model is an empty twin. Seeded
// ops applied to a zero Model and to NewModel() give the same errors,
// the same CheckAll findings and the same MarshalJSON bytes, from the
// untouched models on.
func TestZeroModelMatchesNewModel(t *testing.T) {
	schema, rules := DefaultSchema(), DefaultRules()
	var zero Model
	fresh := NewModel()
	ref := newRefModel(fresh)
	same := func(step string) {
		t.Helper()
		if got, want := CheckAll(&zero, schema, rules), CheckAll(fresh, schema, rules); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: CheckAll on the zero Model = %v, NewModel %v", step, got, want)
		}
		got, err := zero.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalJSON of the zero Model diverges:\n got %s\nwant %s", step, got, want)
		}
	}
	same("empty")
	g := &opGen{rng: rand.New(rand.NewPCG(17, 0x7717))}
	for i := 0; i < 300; i++ {
		op := g.draw(ref)
		step := fmt.Sprintf("step %d (%+v)", i, op)
		errRef := ref.apply(op)
		errZero := applyOp(&zero, copyOp(op))
		errFresh := applyOp(fresh, op)
		if fmt.Sprint(errZero) != fmt.Sprint(errFresh) || (errFresh == nil) != (errRef == nil) {
			t.Fatalf("%s: zero Model err %v, NewModel err %v, reference err %v", step, errZero, errFresh, errRef)
		}
		same(step)
	}
}
