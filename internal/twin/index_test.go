package twin

import (
	"reflect"
	"slices"
	"testing"
)

// indexFixture is a small model every rule has something to read in:
// a fed rack holding two switches, a cable between them routed through a
// tray and a panel, and a door.
func indexFixture(t *testing.T) *Model {
	t.Helper()
	m := NewModel()
	mustAdd(t, m, newEntity("door", KindDoor, map[string]float64{"width_m": 1.1}))
	mustAdd(t, m, newEntity("feed", KindPowerFeed, map[string]float64{"capacity_w": 250}))
	mustAdd(t, m, newEntity("rack", KindRack,
		map[string]float64{"ru_capacity": 4, "plenum_mm2": 100, "width_m": 0.6}))
	for _, id := range []string{"sw-a", "sw-b"} {
		mustAdd(t, m, newEntity(id, KindSwitch,
			map[string]float64{"radix": 32, "rate_gbps": 100, "ru": 2, "power_w": 100}))
		mustRelate(t, m, "rack", VerbContains, id)
	}
	mustRelate(t, m, "feed", VerbFeeds, "rack")
	mustAdd(t, m, newEntity("cable", KindCable, map[string]float64{
		"length_m": 3, "diameter_mm": 6, "bend_radius_mm": 30, "rate_gbps": 100, "loss_budget_db": 3}))
	mustRelate(t, m, "cable", VerbConnects, "sw-a")
	mustRelate(t, m, "cable", VerbConnects, "sw-b")
	mustAdd(t, m, newEntity("tray", KindTray, map[string]float64{"capacity_mm2": 100}))
	mustRelate(t, m, "cable", VerbRoutesThrough, "tray")
	mustAdd(t, m, newEntity("panel", KindPanel, map[string]float64{"ports": 8, "loss_db": 1}))
	mustRelate(t, m, "cable", VerbRoutesThrough, "panel")
	if vs := CheckAll(m, DefaultSchema(), DefaultRules()); len(vs) != 0 {
		t.Fatalf("fixture not clean: %v", vs)
	}
	return m
}

// TestQueryResultsAreCallerOwned: writing into, reordering or appending
// to a slice a public query returned must not reach the model, so the
// next CheckAll still sees the model as it is.
func TestQueryResultsAreCallerOwned(t *testing.T) {
	m := indexFixture(t)
	schema, rules := DefaultSchema(), DefaultRules()
	// Tighten every limit so each rule's finding depends on the lists
	// the writes below would corrupt if they reached the index.
	for id, attr := range map[string]string{"door": "width_m", "feed": "capacity_w",
		"rack": "ru_capacity", "tray": "capacity_mm2", "cable": "loss_budget_db"} {
		m.Entity(id).SetAttr(attr, 0.5)
	}
	want := CheckAll(m, schema, rules)
	if len(want) != 5 {
		t.Fatalf("tightened fixture has %d findings, want 5: %v", len(want), want)
	}

	contained := m.Related("rack", VerbContains)
	contained[0], contained[1] = "cable", "tray"
	_ = append(contained[:1], "door")
	feeders := m.RelatedTo("rack", VerbFeeds)
	feeders[0] = "ghost"
	routed := m.Related("cable", VerbRoutesThrough)
	routed[0], routed[1] = routed[1], routed[0]
	occupants := m.RelatedTo("tray", VerbRoutesThrough)
	occupants[0] = "door"
	doors := m.EntitiesOfKind(KindDoor)
	doors[0] = m.Entity("rack")
	racks := m.EntitiesOfKind(KindRack)
	racks[0] = nil
	_ = append(racks[:0], m.Entity("door"))

	if got := CheckAll(m, schema, rules); !reflect.DeepEqual(got, want) {
		t.Fatalf("CheckAll changed after writes into query results:\n got %v\nwant %v", got, want)
	}
	if got := m.Related("rack", VerbContains); !reflect.DeepEqual(got, []string{"sw-a", "sw-b"}) {
		t.Errorf("Related after caller writes = %v", got)
	}
	if got := entityIDs(m.EntitiesOfKind(KindRack)); !reflect.DeepEqual(got, []string{"rack"}) {
		t.Errorf("EntitiesOfKind after caller writes = %v", got)
	}
}

// TestMutatorsDropTheIndex: for each mutator, query (building the index),
// mutate, and query again; the second answer must reflect the mutation.
// The model's kept ID order must survive Relate, Unrelate and SetAttr
// untouched, be dropped by Add and Remove, and come back sorted from the
// next build.
func TestMutatorsDropTheIndex(t *testing.T) {
	schema, rules := DefaultSchema(), DefaultRules()
	cases := []struct {
		name   string
		before func(t *testing.T, m *Model) // nil, or a step ahead of the mutation
		mutate func(t *testing.T, m *Model)
		check  func(t *testing.T, m *Model)
	}{
		{"Add", nil, func(t *testing.T, m *Model) {
			mustAdd(t, m, newEntity("a-door", KindDoor, map[string]float64{"width_m": 0.5}))
		}, func(t *testing.T, m *Model) {
			if got := entityIDs(m.EntitiesOfKind(KindDoor)); !reflect.DeepEqual(got, []string{"a-door", "door"}) {
				t.Errorf("EntitiesOfKind(door) = %v", got)
			}
			if vs := CheckAll(m, schema, rules); len(vs) != 1 || vs[0].Rule != "door-width" {
				t.Errorf("narrow door not seen: %v", vs)
			}
		}},
		{"Relate", func(t *testing.T, m *Model) {
			mustAdd(t, m, newEntity("sw-c", KindSwitch,
				map[string]float64{"radix": 32, "rate_gbps": 100, "ru": 2, "power_w": 100}))
			CheckAll(m, schema, rules) // rebuild after the Add, so only Relate can drop it
		}, func(t *testing.T, m *Model) {
			mustRelate(t, m, "rack", VerbContains, "sw-c")
		}, func(t *testing.T, m *Model) {
			if got := m.Related("rack", VerbContains); !reflect.DeepEqual(got, []string{"sw-a", "sw-b", "sw-c"}) {
				t.Errorf("Related(rack) = %v", got)
			}
			if got := m.RelatedTo("sw-c", VerbContains); !reflect.DeepEqual(got, []string{"rack"}) {
				t.Errorf("RelatedTo(sw-c) = %v", got)
			}
			vs := CheckAll(m, schema, rules)
			if len(vs) != 2 || vs[0].Rule != "rack-space" || vs[1].Rule != "power" {
				t.Errorf("overfull rack and feed not seen: %v", vs)
			}
		}},
		{"Unrelate", nil, func(t *testing.T, m *Model) {
			m.Unrelate("cable", VerbRoutesThrough, "panel")
		}, func(t *testing.T, m *Model) {
			if got := m.Related("cable", VerbRoutesThrough); !reflect.DeepEqual(got, []string{"tray"}) {
				t.Errorf("Related(cable) = %v", got)
			}
			if got := m.RelatedTo("panel", VerbRoutesThrough); got != nil {
				t.Errorf("RelatedTo(panel) = %v", got)
			}
			m.Entity("cable").SetAttr("loss_budget_db", 0.7) // fits without the panel's 1 dB
			if vs := CheckAll(m, schema, rules); len(vs) != 0 {
				t.Errorf("panel loss still counted: %v", vs)
			}
		}},
		{"SetAttr", nil, func(t *testing.T, m *Model) {
			m.Entity("door").SetAttr("width_m", 0.5)
		}, func(t *testing.T, m *Model) {
			if vs := CheckAll(m, schema, rules); len(vs) != 1 || vs[0].Rule != "door-width" {
				t.Errorf("narrow door not seen: %v", vs)
			}
		}},
		{"Remove", nil, func(t *testing.T, m *Model) {
			if err := m.Remove("sw-b"); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, m *Model) {
			if got := m.Related("rack", VerbContains); !reflect.DeepEqual(got, []string{"sw-a"}) {
				t.Errorf("Related(rack) = %v", got)
			}
			if got := m.Related("cable", VerbConnects); !reflect.DeepEqual(got, []string{"sw-a"}) {
				t.Errorf("Related(cable) = %v", got)
			}
			if got := entityIDs(m.EntitiesOfKind(KindSwitch)); !reflect.DeepEqual(got, []string{"sw-a"}) {
				t.Errorf("EntitiesOfKind(switch) = %v", got)
			}
			m.Entity("feed").SetAttr("capacity_w", 150) // one switch's 100 W fits
			if vs := CheckAll(m, schema, rules); len(vs) != 0 {
				t.Errorf("removed switch still counted: %v", vs)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := indexFixture(t) // its CheckAll has built the index
			m.Related("rack", VerbContains)
			if c.before != nil {
				c.before(t, m)
			}
			order := m.order
			c.mutate(t, m)
			keeps := c.name != "Add" && c.name != "Remove"
			if keeps && !slices.Equal(m.order, order) {
				t.Errorf("%s moved the order", c.name)
			}
			if !keeps && m.order != nil {
				t.Errorf("%s kept an order it invalidates", c.name)
			}
			c.check(t, m)
			if keeps && &m.order[0] != &order[0] {
				t.Errorf("the index build after %s re-made the order", c.name)
			}
			if got, want := orderIDs(m), sortedLiveIDs(m); !slices.Equal(got, want) {
				t.Errorf("order after %s = %v, want %v", c.name, got, want)
			}
		})
	}
}
