package serve

import (
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// decodeNormalizedKey runs a wire body through the same path the
// handler does — strict decode, normalize, canonical hash — so the
// properties tested here are properties of the served cache key.
func decodeNormalizedKey(t *testing.T, wire string) cacheKey {
	t.Helper()
	var req EvaluateRequest
	dec := json.NewDecoder(strings.NewReader(wire))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("decode %s: %v", wire, err)
	}
	norm, err := New(Config{}).normalizeEvaluate(req)
	if err != nil {
		t.Fatalf("normalize %s: %v", wire, err)
	}
	k, err := canonicalKey("evaluate", norm)
	if err != nil {
		t.Fatalf("key %s: %v", wire, err)
	}
	return k
}

// TestCanonicalKeyIgnoresWireKeyOrder: two bodies that differ only in
// JSON key order are the same request and must share a cache key.
func TestCanonicalKeyIgnoresWireKeyOrder(t *testing.T) {
	a := decodeNormalizedKey(t,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100},"techs":4,"seed":9}`)
	b := decodeNormalizedKey(t,
		`{"seed":9,"techs":4,"topo":{"rate":100,"net":4,"radix":8,"n":16,"name":"jellyfish"}}`)
	if a != b {
		t.Fatal("reordered JSON keys changed the cache key")
	}
}

// TestCanonicalKeyOmittedEqualsExplicitDefault: leaving a knob out and
// spelling its default are the same request.
func TestCanonicalKeyOmittedEqualsExplicitDefault(t *testing.T) {
	omitted := decodeNormalizedKey(t,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100}}`)
	explicit := decodeNormalizedKey(t,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100},"hall":{"rows":6,"slots":16},"techs":8,"seed":1}`)
	if omitted != explicit {
		t.Fatal("explicit defaults changed the cache key")
	}
}

// TestCanonicalKeyPinned pins the key of one generated-spec evaluate
// request to the hex earlier releases computed, so a cache persisted by
// an earlier daemon still hits after an upgrade. A change here orphans
// every persisted entry.
func TestCanonicalKeyPinned(t *testing.T) {
	k := decodeNormalizedKey(t, `{"topo":`+smallTopo+`}`)
	const want = "81904654e03a91a3d3fcc6c9a5e823875f11ddcd245092b9c9f00f424f5648a8"
	if got := hex.EncodeToString(k[:]); got != want {
		t.Fatalf("evaluate key = %s, want %s", got, want)
	}
}

// TestCanonicalKeyTimeoutExcluded: how long the caller will wait is not
// part of what is evaluated, so timeout_ms never splits the cache.
func TestCanonicalKeyTimeoutExcluded(t *testing.T) {
	fast := decodeNormalizedKey(t, `{"experiment":"E1","timeout_ms":50}`)
	slow := decodeNormalizedKey(t, `{"experiment":"E1","timeout_ms":60000}`)
	none := decodeNormalizedKey(t, `{"experiment":"E1"}`)
	if fast != slow || fast != none {
		t.Fatal("timeout_ms leaked into the cache key")
	}
}

// TestCanonicalKeyFieldChangesDiffer: every semantic field change must
// produce a distinct key — the other direction of the canonicalization
// property. Each variant differs from the base in exactly one field.
func TestCanonicalKeyFieldChangesDiffer(t *testing.T) {
	base := `{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100},"techs":4,"seed":9}`
	variants := []string{
		`{"topo":{"name":"jellyfish","n":20,"radix":8,"net":4,"rate":100},"techs":4,"seed":9}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":10,"net":4,"rate":100},"techs":4,"seed":9}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":6,"rate":100},"techs":4,"seed":9}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":400},"techs":4,"seed":9}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":3},"techs":4,"seed":9}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100},"techs":5,"seed":9}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100},"techs":4,"seed":10}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100},"techs":4,"seed":9,"anneal":50}`,
		`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100},"techs":4,"seed":9,"hall":{"rows":8,"slots":16}}`,
		`{"experiment":"E1"}`,
		`{"experiment":"E2"}`,
	}
	seen := map[cacheKey]string{decodeNormalizedKey(t, base): base}
	for _, v := range variants {
		k := decodeNormalizedKey(t, v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("distinct requests share a cache key:\n  %s\n  %s", prev, v)
		}
		seen[k] = v
	}
}

// TestCanonicalKeyEndpointSeparation: equal-shaped requests to
// different routes must not collide (the endpoint is hashed in).
func TestCanonicalKeyEndpointSeparation(t *testing.T) {
	type payload struct {
		X int `json:"x"`
	}
	a, err := canonicalKey("evaluate", payload{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalKey("stats", payload{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("endpoint name does not separate cache keys")
	}
}

func key(b byte) cacheKey {
	var k cacheKey
	k[0] = b
	return k
}

// TestLRUEvictionBound: the cache never exceeds its capacity, evicts
// strictly least-recently-used, and reports each eviction.
func TestLRUEvictionBound(t *testing.T) {
	c := newLRU[int](4)
	evictions := 0
	for i := 0; i < 10; i++ {
		if c.add(key(byte(i)), i) {
			evictions++
		}
	}
	if got := c.len(); got != 4 {
		t.Fatalf("len = %d after 10 adds into capacity 4", got)
	}
	if evictions != 6 {
		t.Fatalf("evictions = %d, want 6", evictions)
	}
	for i := 0; i < 6; i++ {
		if _, ok := c.get(key(byte(i))); ok {
			t.Fatalf("key %d survived eviction", i)
		}
	}
	for i := 6; i < 10; i++ {
		if v, ok := c.get(key(byte(i))); !ok || v != i {
			t.Fatalf("key %d = %d,%v, want %d,true", i, v, ok, i)
		}
	}
}

// TestLRUGetRefreshesRecency: touching an entry saves it from the next
// eviction.
func TestLRUGetRefreshesRecency(t *testing.T) {
	c := newLRU[int](2)
	c.add(key(1), 1)
	c.add(key(2), 2)
	c.get(key(1))    // 1 is now most recent
	c.add(key(3), 3) // evicts 2, not 1
	if _, ok := c.get(key(2)); ok {
		t.Fatal("least-recently-used entry survived")
	}
	if _, ok := c.get(key(1)); !ok {
		t.Fatal("recently touched entry was evicted")
	}
}
