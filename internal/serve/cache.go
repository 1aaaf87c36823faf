package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"sync"
)

// cacheKey is the canonical identity of a request: a SHA-256 over the
// endpoint name plus the canonical JSON encoding of the *normalized*
// request (defaults applied, deadline knobs zeroed). Two wire bodies
// that decode to the same normalized request — reordered JSON keys, an
// omitted field vs its explicit default — share a key; any semantic
// field change produces a different one (the property test in
// cache_test.go pins both directions).
type cacheKey [sha256.Size]byte

// canonicalKey hashes (endpoint, normalized request). Normalized
// requests are plain structs (no maps), so encoding/json emits their
// fields in declaration order and the encoding is canonical by
// construction; the endpoint name keeps equal-shaped requests to
// different routes from colliding.
func canonicalKey(endpoint string, normalized any) (cacheKey, error) {
	b, err := json.Marshal(normalized)
	if err != nil {
		return cacheKey{}, err
	}
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(b)
	var k cacheKey
	h.Sum(k[:0])
	return k, nil
}

// lruCache is a bounded least-recently-used map from cacheKey to a
// stored value: the store inside each flightCache (singleflight.go), and
// on its own the uploaded-document cache. All methods are safe for
// concurrent use.
type lruCache[V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *lruEntry[V]
	items map[cacheKey]*list.Element
}

type lruEntry[V any] struct {
	key cacheKey
	val V
}

func newLRU[V any](max int) *lruCache[V] {
	if max < 1 {
		max = 1
	}
	return &lruCache[V]{max: max, order: list.New(), items: map[cacheKey]*list.Element{}}
}

// get returns the cached value for k, refreshing its recency.
func (c *lruCache[V]) get(k cacheKey) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add stores v under k (replacing any existing value) and reports
// whether a least-recently-used entry was evicted to make room.
func (c *lruCache[V]) add(k cacheKey, v V) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.order.MoveToFront(el)
		return false
	}
	c.items[k] = c.order.PushFront(&lruEntry[V]{key: k, val: v})
	if c.order.Len() <= c.max {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.items, oldest.Value.(*lruEntry[V]).key)
	return true
}

// snapshotOldestFirst returns the cache's keys and values ordered least
// recently used first, so replaying them through add() in order
// reproduces both the contents and the recency order — the persistence
// round-trip (persist.go) depends on this.
func (c *lruCache[V]) snapshotOldestFirst() ([]cacheKey, []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]cacheKey, 0, c.order.Len())
	vals := make([]V, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*lruEntry[V])
		keys = append(keys, ent.key)
		vals = append(vals, ent.val)
	}
	return keys, vals
}

// remove drops k if present and reports whether it was there.
func (c *lruCache[V]) remove(k cacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, k)
	return true
}

// len returns the current entry count.
func (c *lruCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
