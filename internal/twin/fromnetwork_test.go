package twin

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
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
