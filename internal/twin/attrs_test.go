package twin

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"testing"

	"physdep/internal/physerr"
)

// TestLayoutSlots pins every slot constant the rules read to its name,
// and every layout to its kind's requirements followed by its optional
// names.
func TestLayoutSlots(t *testing.T) {
	for _, c := range []struct {
		k    int32
		slot int
		name string
	}{
		{kRack, sRackRU, "ru_capacity"}, {kRack, sRackPlenum, "plenum_mm2"},
		{kRack, sRackWidth, "width_m"}, {kRack, sRackUnitWidth, "unit_width_m"},
		{kSwitch, sSwitchRU, "ru"}, {kSwitch, sSwitchPower, "power_w"},
		{kCable, sCableLength, "length_m"}, {kCable, sCableDiameter, "diameter_mm"},
		{kCable, sCableBend, "bend_radius_mm"}, {kCable, sCableLossBudget, "loss_budget_db"},
		{kBundle, sBundleCrossSection, "cross_section_mm2"},
		{kTray, sTrayCapacity, "capacity_mm2"}, {kTray, sTrayMinBend, "min_bend_mm"},
		{kPanel, sPanelLoss, "loss_db"}, {kPowerFeed, sFeedCapacity, "capacity_w"},
		{kDoor, sDoorWidth, "width_m"},
	} {
		if got := layouts[c.k].names[c.slot]; got != c.name {
			t.Errorf("%s slot %d holds %q, want %q", vocabularyKinds[c.k], c.slot, got, c.name)
		}
	}
	required := DefaultSchema().Required
	for k, kind := range vocabularyKinds {
		want := append(append([]string(nil), required[kind]...), optionalAttrs[kind]...)
		if got := layouts[k].names; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s layout %v, want %v", kind, got, want)
		}
	}
}

// TestAttrsMatchMapReference applies seeded SetAttr/Attr sequences over
// layout and overflow names to entities of every vocabulary kind and of
// an unknown kind, and to entities FromNetwork cut from one slab, and
// checks every answer against a plain map, presence after a write of 0
// included. Writes to one slab entity must not reach its neighbours.
func TestAttrsMatchMapReference(t *testing.T) {
	// Every layout name, plus names no layout holds.
	names := []string{"", "paint_ral", "radix ", "Width_m"}
	for _, l := range layouts {
		names = append(names, l.names...)
	}
	values := []float64{0, 0, 1, -2.5, 1e300, 42}
	run := func(t *testing.T, e *Entity, ref map[string]float64, rng *rand.Rand) {
		t.Helper()
		for step := 0; step < 200; step++ {
			name := names[rng.IntN(len(names))]
			if rng.IntN(2) == 0 {
				v := values[rng.IntN(len(values))]
				e.SetAttr(name, v)
				ref[name] = v
			}
			got, ok := e.Attr(name)
			want, wantOK := ref[name]
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Attr(%q) = %v, %v; map has %v, %v", step, name, got, ok, want, wantOK)
			}
		}
		for _, name := range names {
			got, ok := e.Attr(name)
			if want, wantOK := ref[name]; got != want || ok != wantOK {
				t.Fatalf("Attr(%q) = %v, %v; map has %v, %v", name, got, ok, want, wantOK)
			}
		}
		if got := e.attrMap(); !maps.Equal(got, ref) {
			t.Fatalf("attrMap %v, map %v", got, ref)
		}
	}
	kinds := append(vocabularyKinds[:], Kind("ufo"), Kind(""))
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xa77))
		for _, k := range kinds {
			t.Run(fmt.Sprintf("%s/%d", k, seed), func(t *testing.T) {
				run(t, &Entity{ID: "e", Kind: k}, map[string]float64{}, rng)
			})
		}
	}

	p, plan := hallFixture(t, benchFabric, 6, 16)
	m, err := FromNetwork(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]map[string]float64, len(m.ents))
	for h, e := range m.ents {
		before[h] = e.attrMap()
	}
	rng := rand.New(rand.NewPCG(7, 0xa77))
	touched := map[int]bool{}
	for k := range vocabularyKinds {
		for _, h := range m.index().ofKind(int32(k)) {
			t.Run(fmt.Sprintf("slab/%s", m.ents[h].ID), func(t *testing.T) {
				run(t, m.ents[h], maps.Clone(before[h]), rng)
			})
			touched[int(h)] = true
			before[h] = m.ents[h].attrMap()
			break // one entity per kind; its neighbours are checked below
		}
	}
	for h, e := range m.ents {
		if got := e.attrMap(); !touched[h] && !maps.Equal(got, before[h]) {
			t.Fatalf("%s changed to %v from %v without a write", e.ID, got, before[h])
		}
	}
}

// TestAddRejectsKindChangedAfterSetAttr: the first SetAttr fixes an
// entity's layout, so Add refuses one whose Kind moved since.
func TestAddRejectsKindChangedAfterSetAttr(t *testing.T) {
	for _, c := range []struct{ from, to Kind }{
		{KindRack, KindSwitch}, {KindRack, "ufo"}, {"ufo", KindRack},
	} {
		e := &Entity{ID: "e", Kind: c.from}
		e.SetAttr("width_m", 1)
		e.Kind = c.to
		if err := NewModel().Add(e); !errors.Is(err, physerr.ErrOutOfRange) {
			t.Errorf("%s → %s: Add err %v, want ErrOutOfRange", c.from, c.to, err)
		}
	}
	// Two unknown kinds share the empty layout, and a kind may change
	// freely before the first SetAttr.
	e := &Entity{ID: "e", Kind: "ufo"}
	e.SetAttr("width_m", 1)
	e.Kind = "uap"
	mustAdd(t, NewModel(), e)
	e = &Entity{ID: "e", Kind: KindRack}
	e.Kind = KindDoor
	e.SetAttr("width_m", 1)
	mustAdd(t, NewModel(), e)
}
