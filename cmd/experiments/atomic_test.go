package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdep/internal/atomicfile"
	"physdep/internal/physerr"
)

func TestAtomicWriteFileReplacesWholesale(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := atomicfile.WriteFile(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.WriteFile(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "second" {
		t.Fatalf("content = %q, want %q", b, "second")
	}
	// No temp droppings: the rename consumed the only temp file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("dir has %d entries, want 1", len(entries))
	}
}

// TestWriteGoldenCanceledLeavesCorpusIntact is the satellite-2
// regression: a golden update cut short by cancellation must fail
// without touching a single committed file — no truncation, no partial
// rewrite, no temp droppings.
func TestWriteGoldenCanceledLeavesCorpusIntact(t *testing.T) {
	dir := t.TempDir()
	const old = "== E1: the previous, committed table\n"
	path := filepath.Join(dir, "E1.txt")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := writeGolden(ctx, []string{"E1", "E2"}, dir)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("writeGolden under canceled ctx: got %v, want ErrCanceled", err)
	}
	b, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if string(b) != old {
		t.Fatalf("canceled update modified the golden file:\n%s", b)
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(entries) != 1 {
		t.Fatalf("canceled update left %d files in the corpus dir, want 1", len(entries))
	}
}

// TestWriteGoldenAllOrNothingOnFailure: one failing experiment aborts
// the whole update before any file is written, even when other selected
// experiments succeeded.
func TestWriteGoldenAllOrNothingOnFailure(t *testing.T) {
	dir := t.TempDir()
	err := writeGolden(context.Background(), []string{"E999"}, dir)
	if err == nil {
		t.Fatal("unknown experiment did not fail the update")
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(entries) != 0 {
		t.Fatalf("failed update wrote %d files, want 0", len(entries))
	}
}
