package twin

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/cli"
)

// TestFromNetworkGolden pins the model FromNetwork builds for every
// cli.Families() entry at the differential test's fixture sizes: its
// Fingerprint (every entity, attribute and relation, in order), entity
// count and relation count. The differential tests copy whatever
// FromNetwork built into the reference, so only this test catches a
// builder that emits a different model. On a mismatch the failure
// prints the file this build would write, to review and commit.
func TestFromNetworkGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# family fingerprint entities relations\n")
	for _, fam := range cli.Families() {
		p, ok := diffFamilies[fam]
		if !ok {
			t.Fatalf("family %q has no fixture", fam)
		}
		if fam == "file" {
			p.File = writeDocument(t, benchFabric)
		}
		pl, plan := hallFixture(t, p, 6, 16)
		m, err := FromNetwork(pl, plan)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		fmt.Fprintf(&b, "%s %s %d %d\n", fam, fp, m.NumEntities(), len(m.Relations()))
	}
	path := filepath.Join("testdata", "fromnetwork.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; this build writes:\n%s", err, b.String())
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("FromNetwork models differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestFromNetworkCableAttrs checks every cable entity's attributes
// against its planned cable. The catalog holds only active copper (7 m
// reach) and fibre, so both shapes occur: a fibre cable carries its loss
// budget, a copper one does not. The default catalog plans no fibre in
// the 6×16 hall, so no other FromNetwork test sees a loss budget.
func TestFromNetworkCableAttrs(t *testing.T) {
	p, _ := hallFixture(t, benchFabric, 6, 16)
	cat := &cabling.Catalog{}
	for _, s := range cabling.DefaultCatalog().Media {
		if s.Class == cabling.MediaAEC || s.Class == cabling.MediaFiber {
			cat.Media = append(cat.Media, s)
		}
	}
	plan, err := cabling.PlanCables(p.Floor, cat, p.Demands(nil), cabling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromNetwork(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	fibre := 0
	for i, c := range plan.Cables {
		want := map[string]float64{"length_m": float64(c.Route.Length),
			"diameter_mm": float64(c.Spec.Diameter), "bend_radius_mm": float64(c.Spec.BendRadius),
			"rate_gbps": float64(c.Spec.Rate)}
		if c.Spec.PanelCompatible() {
			want["loss_budget_db"] = float64(c.Spec.LossBudget)
			fibre++
		}
		if got := m.Entity(fmt.Sprintf("cable-%d", i)).attrMap(); !maps.Equal(got, want) {
			t.Fatalf("cable-%d (%s): attributes %v, want %v", i, c.Spec.Name, got, want)
		}
	}
	if fibre == 0 || fibre == len(plan.Cables) {
		t.Fatalf("%d of %d cables are fibre; the fixture must plan both media", fibre, len(plan.Cables))
	}
}

// orderIDs returns the IDs of the model's kept order, as it stands.
func orderIDs(m *Model) []string {
	ids := make([]string, len(m.order))
	for i, h := range m.order {
		ids[i] = m.ents[h].ID
	}
	return ids
}

// sortedLiveIDs returns the model's live IDs sorted by strings.Compare,
// read from the handle store alone.
func sortedLiveIDs(m *Model) []string {
	var ids []string
	for _, e := range m.ents {
		if e != nil {
			ids = append(ids, e.ID)
		}
	}
	slices.SortFunc(ids, strings.Compare)
	return ids
}

// TestDecimalOrder checks the decimal-trie walk against formatting every
// number and sorting the strings, across the digit-count boundaries.
func TestDecimalOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001, 12345} {
		want := make([]string, n)
		for i := range want {
			want[i] = strconv.Itoa(i)
		}
		slices.Sort(want)
		var got []string
		decimalOrder(n, func(i int) { got = append(got, strconv.Itoa(i)) })
		if !slices.Equal(got, want) {
			t.Errorf("n=%d: walk differs from the string sort", n)
		}
	}
}

// TestFromNetworkOrderMatchesSort: the ID order FromNetwork installs,
// with no comparisons, must be the string sort of its live IDs, for every
// cli.Families() fabric and for a hall whose used rack slots and
// multi-cable bundle indices are sparse and cross every digit-count
// boundary up to 1000.
func TestFromNetworkOrderMatchesSort(t *testing.T) {
	check := func(t *testing.T, m *Model) {
		t.Helper()
		if len(m.order) != m.live {
			t.Fatalf("FromNetwork ordered %d of its %d entities", len(m.order), m.live)
		}
		if got, want := orderIDs(m), sortedLiveIDs(m); !slices.Equal(got, want) {
			t.Fatalf("FromNetwork's order differs from the string sort:\n got %v\nwant %v", got, want)
		}
	}
	for _, fam := range cli.Families() {
		t.Run(fam, func(t *testing.T) {
			p := diffFamilies[fam]
			if fam == "file" {
				p.File = writeDocument(t, benchFabric)
			}
			pl, plan := hallFixture(t, p, 6, 16)
			m, err := FromNetwork(pl, plan)
			if err != nil {
				t.Fatal(err)
			}
			check(t, m)
		})
	}
	t.Run("sparse", func(t *testing.T) {
		pl, plan := hallFixture(t, benchFabric, 11, 100) // 1,100 slots
		// Move the racks to sparse slots around 10, 100 and 1000, in an
		// order that is not ascending, so first use is not ID order.
		taken := make([]bool, pl.Floor.NumRacks())
		next := 0
		use := func(s int) {
			if next < len(pl.SlotOfRack) && !taken[s] {
				taken[s], pl.SlotOfRack[next] = true, s
				next++
			}
		}
		for _, lo := range []int{997, 97, 8, 0, 1095} {
			for s := lo; s < lo+5; s++ {
				use(s)
			}
		}
		for s := 1090; next < len(pl.SlotOfRack); s -= 13 {
			use(s)
		}
		// Replace the bundling: two-cable bundles at sparse indices around
		// the same boundaries, every other index a singleton.
		multi := map[int]bool{0: true, 1: true, 9: true, 10: true, 11: true, 99: true,
			100: true, 101: true, 999: true, 1000: true, 1001: true, 1009: true}
		bundles := make([]cabling.Bundle, 1010)
		for i := range bundles {
			if multi[i] {
				bundles[i].CableIdx = []int{i % len(plan.Cables), (i + 1) % len(plan.Cables)}
			} else {
				bundles[i].CableIdx = []int{i % len(plan.Cables)}
			}
		}
		plan.Bundles = bundles
		m, err := FromNetwork(pl, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"rack-9", "rack-10", "rack-99", "rack-100", "rack-999", "rack-1000",
			"bundle-9", "bundle-10", "bundle-99", "bundle-100", "bundle-999", "bundle-1000"} {
			if !slices.Contains(orderIDs(m), id) {
				t.Fatalf("fixture lacks %s", id)
			}
		}
		check(t, m)
	})
}

// TestFromNetworkLazyIDs: a FromNetwork model builds no ID map, yet
// before its first string lookup it still rejects an Add of one of its
// own IDs and answers Entity and Related as the reference does.
func TestFromNetworkLazyIDs(t *testing.T) {
	pl, plan := hallFixture(t, benchFabric, 6, 16)
	m, err := FromNetwork(pl, plan)
	if err != nil {
		t.Fatal(err)
	}
	if m.ids != nil {
		t.Fatal("FromNetwork built the ID map")
	}
	if m.NumEntities() != len(m.ents) {
		t.Fatalf("NumEntities() = %d, want %d", m.NumEntities(), len(m.ents))
	}
	if err := m.Add(&Entity{ID: "switch-7", Kind: KindSwitch}); err == nil {
		t.Fatal("Add of an existing ID accepted")
	}
	if m, err = FromNetwork(pl, plan); err != nil {
		t.Fatal(err)
	}
	ref := &refModel{entities: map[string]*refEntity{}, relations: m.Relations()}
	for _, e := range m.ents {
		ref.entities[e.ID] = toRef(e)
	}
	if m.ids != nil {
		t.Fatal("building the reference built the ID map")
	}
	for _, id := range sortedLiveIDs(m) {
		e := m.Entity(id)
		if e == nil || e.ID != id || !reflect.DeepEqual(toRef(e), ref.Entity(id)) {
			t.Fatalf("Entity(%q) = %v, want %v", id, e, ref.Entity(id))
		}
		for _, v := range vocabularyVerbs {
			if got, want := m.Related(id, v), ref.Related(id, v); !slices.Equal(got, want) {
				t.Fatalf("Related(%q, %s) = %v, want %v", id, v, got, want)
			}
		}
	}
	if e := m.Entity("switch-96"); e != nil {
		t.Fatalf("Entity(switch-96) = %v, want nil", e)
	}
}
