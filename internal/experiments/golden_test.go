package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// regenerate is how the golden corpus is rewritten — atomically and all
// or nothing, by the one writer. The tests here only read it. Rewrite
// only when a table is meant to change, and review the diff like code:
// the committed files are the regression oracle.
const regenerate = "go run ./cmd/experiments -update-golden"

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// readGolden loads the committed canonical table for id.
func readGolden(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("no golden file for %s (run `%s`): %v", id, regenerate, err)
	}
	return string(b)
}

// diffGolden fails the test with a line-numbered first divergence, so a
// regression names the exact row that moved rather than dumping two
// whole tables.
func diffGolden(t *testing.T, id, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverges from %s at line %d:\n  got:  %q\n  want: %q\n(if the change is meant, run `%s`)",
				id, goldenPath(id), i+1, gl[i], wl[i], regenerate)
		}
	}
	t.Fatalf("%s: output has %d lines, golden has %d (first %d identical; if the change is meant, run `%s`)",
		id, len(gl), len(wl), n, regenerate)
}

// TestGoldenCorpus pins every experiment table to its committed golden
// file — the regression oracle for the whole repo: any change to any
// kernel that shifts any number in any of the 22 tables fails here,
// naming the experiment and line.
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipping in -short mode")
	}
	for _, o := range RunManyCtx(context.Background(), Order()) {
		o := o
		t.Run(o.ID, func(t *testing.T) {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.ID, o.Err)
			}
			diffGolden(t, o.ID, o.Res.Render(), readGolden(t, o.ID))
		})
	}
}

// TestGoldenFilesHaveNoStragglers catches the reverse drift: a golden
// file whose experiment no longer exists (renamed, deleted) would
// silently stop being checked.
func TestGoldenFilesHaveNoStragglers(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, id := range Order() {
		known[id+".txt"] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("testdata/golden/%s matches no registered experiment", e.Name())
		}
	}
	if len(entries) != len(known) {
		t.Errorf("%d golden files for %d experiments", len(entries), len(known))
	}
}

// TestRenderRoundTripsGoldenHeader sanity-checks the corpus format
// itself: every golden file starts with its own experiment header, so a
// file can't be committed under the wrong name.
func TestRenderRoundTripsGoldenHeader(t *testing.T) {
	for _, id := range Order() {
		want := fmt.Sprintf("== %s: ", id)
		if got := readGolden(t, id); !strings.HasPrefix(got, want) {
			t.Errorf("%s starts %q, want prefix %q", goldenPath(id), got[:min(len(got), 20)], want)
		}
	}
}
