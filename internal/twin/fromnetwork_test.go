package twin

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
