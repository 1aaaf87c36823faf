package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"testing/quick"
)

// TestRegistryCoversDesignDoc checks the registry against DESIGN.md §3,
// the experiment index: every E<n> row in the design table must be
// registered, and nothing may be registered that the design doc doesn't
// name. Order() must enumerate exactly the registry, without
// duplicates.
func TestRegistryCoversDesignDoc(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	// Table rows look like "| E7 | §4.2 | ..." (the E-scale band uses
	// "| ES1 | ..."); anchors elsewhere in prose don't match the row shape.
	rows := regexp.MustCompile(`(?m)^\| (ES?\d+) \|`).FindAllStringSubmatch(string(b), -1)
	design := map[string]bool{}
	for _, m := range rows {
		design[m[1]] = true
	}
	if len(design) == 0 {
		t.Fatal("found no experiment rows in DESIGN.md §3 — did the table format change?")
	}

	all := registry()
	for id := range design {
		if all[id] == nil {
			t.Errorf("DESIGN.md §3 lists %s but the registry lacks it", id)
		}
	}
	for id := range all {
		if !design[id] {
			t.Errorf("registry has %s but DESIGN.md §3 doesn't list it", id)
		}
	}

	order := Order()
	seen := map[string]bool{}
	for _, id := range order {
		if seen[id] {
			t.Errorf("Order() lists %s twice", id)
		}
		seen[id] = true
		if all[id] == nil {
			t.Errorf("Order() lists %s but the registry lacks it", id)
		}
	}
	if len(order) != len(all) {
		t.Errorf("Order() has %d entries, registry has %d", len(order), len(all))
	}
}

// TestQuickRunManyPreservesInputOrder: RunMany's outcomes must land in
// input order with matching IDs, for any mix of known and unknown IDs —
// the property the CLI's byte-identical presentation ordering rests on.
// Unknown IDs keep the property test cheap: the ordering logic under
// test is identical for error and success outcomes.
func TestQuickRunManyPreservesInputOrder(t *testing.T) {
	f := func(picks []uint16) bool {
		ids := make([]string, len(picks))
		for i, p := range picks {
			// Nonexistent experiment IDs; E900–E999 are never registered.
			ids[i] = fmt.Sprintf("E9%02d", p%100)
		}
		outs := RunManyCtx(context.Background(), ids)
		if len(outs) != len(ids) {
			return false
		}
		for i := range outs {
			if outs[i].ID != ids[i] || outs[i].Err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
