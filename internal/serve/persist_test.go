package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdep/internal/obs"
)

// TestPersistWarmStartByteIdenticalHits is the warm-start contract: a
// daemon that saved its cache and a fresh daemon that loaded it answer
// the saved working set as byte-identical cache hits with zero kernel
// work — as if the restart never happened.
func TestPersistWarmStartByteIdenticalHits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s1 := New(Config{})
	h1 := s1.Handler()
	reqs := []string{
		`{"topo":` + smallTopo + `}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":8}}`,
	}
	want := make([]string, len(reqs))
	for i, body := range reqs {
		rr := do(h1, nil, "POST", "/v1/stats", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("seed request %d = %d: %s", i, rr.Code, rr.Body)
		}
		want[i] = rr.Body.String()
	}
	saved, err := s1.SaveCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved != len(reqs) {
		t.Fatalf("saved %d entries, want %d", saved, len(reqs))
	}

	s2 := New(Config{})
	loaded, err := s2.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != len(reqs) {
		t.Fatalf("loaded %d entries, want %d", loaded, len(reqs))
	}
	// Recency order survives the round-trip, not just the contents.
	k1, v1 := s1.results.lru.snapshotOldestFirst()
	k2, v2 := s2.results.lru.snapshotOldestFirst()
	if len(k1) != len(k2) {
		t.Fatalf("entry count diverged: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] || !bytes.Equal(v1[i], v2[i]) {
			t.Fatalf("entry %d diverged across the persistence round-trip", i)
		}
	}

	h2 := s2.Handler()
	before := obs.TakeSnapshot()
	for i, body := range reqs {
		rr := do(h2, nil, "POST", "/v1/stats", body)
		if rr.Code != http.StatusOK || rr.Header().Get("X-Physdepd-Cache") != "hit" {
			t.Fatalf("warm replay %d = %d (%q), want 200 hit",
				i, rr.Code, rr.Header().Get("X-Physdepd-Cache"))
		}
		if rr.Body.String() != want[i] {
			t.Fatalf("warm replay %d is not byte-identical:\n%s\nvs\n%s", i, rr.Body, want[i])
		}
	}
	after := obs.TakeSnapshot()
	for _, kernelWork := range []string{"par.loops", "graph.freeze.builds", "serve.store.build", "serve.cache.store"} {
		if d := counterDelta(before, after, kernelWork); d != 0 {
			t.Fatalf("warm-started hit did kernel work: %s delta = %d, want 0", kernelWork, d)
		}
	}
}

// TestPersistMissingFileIsColdStart: pointing -cache-persist at a file
// that does not exist yet is the normal first boot, not an error.
func TestPersistMissingFileIsColdStart(t *testing.T) {
	s := New(Config{})
	n, err := s.LoadCache(filepath.Join(t.TempDir(), "never-written.snap"))
	if err != nil || n != 0 {
		t.Fatalf("LoadCache(missing) = (%d, %v), want (0, nil)", n, err)
	}
}

// TestPersistSaveIsAtomic: a save leaves exactly the target file — no
// temp droppings — and overwrites a previous snapshot in place.
func TestPersistSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	s := New(Config{})
	h := s.Handler()
	if rr := do(h, nil, "POST", "/v1/stats", `{"topo":`+smallTopo+`}`); rr.Code != http.StatusOK {
		t.Fatalf("seed = %d", rr.Code)
	}
	for i := 0; i < 2; i++ { // second save overwrites via rename
		if _, err := s.SaveCache(path); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "cache.snap" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("save left stray files: %v", names)
	}
}

// TestPersistCorruptEntrySkipped: a bit-rotted entry fails its checksum
// and is skipped — costing one cold miss — while every intact entry
// still warm-starts.
func TestPersistCorruptEntrySkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s1 := New(Config{})
	h1 := s1.Handler()
	for _, body := range []string{
		`{"topo":` + smallTopo + `}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":8}}`,
	} {
		if rr := do(h1, nil, "POST", "/v1/stats", body); rr.Code != http.StatusOK {
			t.Fatalf("seed = %d", rr.Code)
		}
	}
	if _, err := s1.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 3 { // header + 2 entries
		t.Fatalf("snapshot has %d lines, want 3", len(lines))
	}
	// Rot the second entry's body without touching its checksum.
	lines[2] = strings.Replace(lines[2], `"body":"`, `"body":"QQ`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{})
	before := obs.TakeSnapshot()
	loaded, err := s2.LoadCache(path)
	after := obs.TakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("loaded %d entries from a half-rotted snapshot, want 1", loaded)
	}
	if d := counterDelta(before, after, "serve.persist.corrupt"); d != 1 {
		t.Fatalf("serve.persist.corrupt delta = %d, want 1", d)
	}
	// The intact entry still hits; the rotted one is a fresh miss.
	h2 := s2.Handler()
	if rr := do(h2, nil, "POST", "/v1/stats", `{"topo":`+smallTopo+`}`); rr.Header().Get("X-Physdepd-Cache") != "hit" {
		t.Fatalf("intact entry did not warm-start (got %q)", rr.Header().Get("X-Physdepd-Cache"))
	}
}

// TestPersistTruncatedSnapshotCountsShortfall: a snapshot cut off on a
// clean line boundary decodes without a single entry-level error, so
// only the header's declared count can reveal that the warm start is
// short — each missing entry is counted under serve.persist.corrupt
// (it costs a cold miss, operationally identical to a rotted entry).
func TestPersistTruncatedSnapshotCountsShortfall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s1 := New(Config{})
	h1 := s1.Handler()
	for _, body := range []string{
		`{"topo":` + smallTopo + `}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":8}}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":9}}`,
	} {
		if rr := do(h1, nil, "POST", "/v1/stats", body); rr.Code != http.StatusOK {
			t.Fatalf("seed = %d", rr.Code)
		}
	}
	if _, err := s1.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 4 { // header + 3 entries
		t.Fatalf("snapshot has %d lines, want 4", len(lines))
	}
	// Drop the last two entries whole: every surviving line is pristine.
	if err := os.WriteFile(path, []byte(strings.Join(lines[:2], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{})
	before := obs.TakeSnapshot()
	loaded, err := s2.LoadCache(path)
	after := obs.TakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("loaded %d entries from a truncated snapshot, want 1", loaded)
	}
	if d := counterDelta(before, after, "serve.persist.corrupt"); d != 2 {
		t.Fatalf("serve.persist.corrupt delta = %d, want 2 (the declared-but-missing entries)", d)
	}
	if d := counterDelta(before, after, "serve.persist.loaded"); d != 1 {
		t.Fatalf("serve.persist.loaded delta = %d, want 1", d)
	}
}

// TestPersistNegativeEntryHeaderRejected: a header declaring a negative
// entry count is nonsense and refused outright, like a foreign format.
func TestPersistNegativeEntryHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(path,
		[]byte(`{"format":"physdepd-cache","version":1,"entries":-3}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if _, err := s.LoadCache(path); err == nil {
		t.Fatal("LoadCache accepted a negative entry count")
	}
}

// TestPersistRejectsForeignFile: a file that is not a physdepd cache
// snapshot (or is a future version) is refused outright rather than
// half-loaded.
func TestPersistRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(path, []byte(`{"format":"something-else","version":9,"entries":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if _, err := s.LoadCache(path); err == nil {
		t.Fatal("LoadCache accepted a foreign snapshot header")
	}
}
