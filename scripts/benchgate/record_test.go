package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdep/internal/par"
)

// TestCommittedBaselinesRoundTrip: every committed BENCH_*.json decodes
// into entry with no unknown field and re-encodes to the same bytes, so
// -update and the gate read and write one schema.
func TestCommittedBaselinesRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json baselines found")
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var e entry
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(out, '\n'), raw) {
			t.Errorf("%s does not re-encode byte-identically", p)
		}
	}
}

// TestMeasureSweep: record takes one sample per worker count in sweep
// order, sets the width for each run, puts speedups on every sample after
// the serial one, and reports a run error with the width it happened at.
func TestMeasureSweep(t *testing.T) {
	defer par.SetWorkers(0)
	var widths []int
	e, err := record("X", "title", []int{1, 3}, 2, func() error {
		widths = append(widths, par.Workers())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "X" || e.Title != "title" || e.Reps != 2 || len(e.Samples) != 2 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Samples[0].Workers != 1 || e.Samples[1].Workers != 3 {
		t.Fatalf("sample widths = %d, %d, want 1, 3", e.Samples[0].Workers, e.Samples[1].Workers)
	}
	if want := []int{1, 1, 3, 3}; len(widths) != len(want) || widths[0] != 1 || widths[2] != 3 {
		t.Fatalf("runs saw widths %v, want %v", widths, want)
	}
	if e.Samples[0].SpeedupVsSerial != 0 {
		t.Errorf("serial sample carries a speedup %v", e.Samples[0].SpeedupVsSerial)
	}

	boom := errors.New("boom")
	_, err = record("X", "", []int{2}, 1, func() error { return boom })
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "workers=2") {
		t.Fatalf("err = %v, want boom at workers=2", err)
	}
}
