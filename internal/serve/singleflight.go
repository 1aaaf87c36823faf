package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"physdep/internal/obs"
	"physdep/internal/physerr"
)

// flight is one in-progress computation of a key. The first caller for
// a key becomes the flight's leader and computes; every concurrent
// caller for the same key becomes a follower that blocks on done and
// then takes the leader's outcome. val and ok are written exactly once,
// before done is closed, so readers that return from <-done observe them
// without further synchronization. ok == false means the leader produced
// no value (it failed, was canceled, or was refused admission) —
// followers must then retry on their own rather than inherit the
// leader's outcome (its deadline, its disconnect, its 429 are facts
// about that request, not about the key).
type flight[V any] struct {
	done    chan struct{}
	val     V
	ok      bool
	waiters atomic.Int64 // followers that joined this flight (peak gauge + test seam)
}

// source says where flightCache.get found a key's value.
type source string

// The sources double as the X-Physdepd-Cache header values.
const (
	fromStore   source = "hit"       // a stored value
	fromFlight  source = "coalesced" // an identical computation already in progress
	fromCompute source = "miss"      // this caller led the computation
)

// flightEvent indexes flightCounters.
type flightEvent int

const (
	evHit flightEvent = iota
	evMiss
	evCoalesced
	evStore
	evEvict
)

// flightCounters names the obs counter a flightCache bumps per event.
type flightCounters [evEvict + 1]string

// flightCache is the daemon's one single-flight primitive: a bounded LRU
// of completed values with a per-key in-flight table in front of it.
// The result cache runs on one for response bytes, topoStore on another
// for built topologies.
//
// Whether a key is stored and whether a flight for it is running are
// decided under one lock (mu), and a leader's value is stored under that
// lock before its flight leaves the table. So every caller either finds
// the value, joins the flight, or leads — no caller can miss both and
// start a second computation of a key another caller just finished.
type flightCache[V any] struct {
	lru      *lruCache[V]
	counters *flightCounters // nil counts nothing
	mu       sync.Mutex
	inflight map[cacheKey]*flight[V]
}

func newFlightCache[V any](entries int, counters *flightCounters) *flightCache[V] {
	return &flightCache[V]{lru: newLRU[V](entries), counters: counters, inflight: map[cacheKey]*flight[V]{}}
}

// get returns k's value from the store, from an identical flight in
// progress, or by leading compute(ctx), and says which. A hit is one LRU
// lookup and takes no flight lock; it and the miss that follows it are
// counted once per call, however often a follower retries. A follower
// waits under its own ctx: when ctx is done first it gets an error
// matching physerr.ErrCanceled and the flight carries on for the rest.
// A leader's error is returned to the leader alone and is never stored;
// its followers retry, leading a fresh flight or joining one.
func (c *flightCache[V]) get(ctx context.Context, k cacheKey, compute func(context.Context) (V, error)) (V, source, error) {
	if v, ok := c.lru.get(k); ok {
		c.count(evHit)
		return v, fromStore, nil
	}
	c.count(evMiss)
	for {
		c.mu.Lock()
		if v, ok := c.lru.get(k); ok {
			c.mu.Unlock()
			return v, fromStore, nil
		}
		f, ok := c.inflight[k]
		if !ok {
			f = &flight[V]{done: make(chan struct{})}
			c.inflight[k] = f
			c.mu.Unlock()
			v, err := c.lead(ctx, k, f, compute)
			return v, fromCompute, err
		}
		obs.MaxGauge("serve.flight.waiters.peak", float64(f.waiters.Add(1)))
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.ok {
				c.count(evCoalesced)
				return f.val, fromFlight, nil
			}
		case <-ctx.Done():
			var zero V
			return zero, fromFlight, fmt.Errorf("waiting on an identical computation in flight: %w",
				physerr.Canceled(ctx.Err()))
		}
	}
}

// lead runs compute as the leader of f. The flight finishes on every
// exit path, panics included (net/http recovers handler panics), or its
// followers would wait for a leader that never comes back. While f is
// still k's flight (pointer identity), a successful value is stored and
// f leaves the table, both under mu; a flight that drop already took out
// is not stored, but its followers still get the value.
func (c *flightCache[V]) lead(ctx context.Context, k cacheKey, f *flight[V], compute func(context.Context) (V, error)) (V, error) {
	var v V
	ok := false
	defer func() {
		c.mu.Lock()
		if c.inflight[k] == f {
			if ok {
				c.count(evStore)
				if c.lru.add(k, v) {
					c.count(evEvict)
				}
			}
			delete(c.inflight, k)
		}
		c.mu.Unlock()
		f.val, f.ok = v, ok
		close(f.done)
	}()
	v, err := compute(ctx)
	ok = err == nil
	return v, err
}

func (c *flightCache[V]) count(e flightEvent) {
	if c.counters != nil {
		obs.Inc(c.counters[e])
	}
}

// drop forgets k — its stored value and any flight of it in progress —
// and reports whether there was either. A dropped flight's value is
// handed to its followers but never stored, and the next get for k
// computes fresh: how /v1/reload forces a rebuild of a topology whose
// build is still running.
func (c *flightCache[V]) drop(k cacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, building := c.inflight[k]
	delete(c.inflight, k)
	return c.lru.remove(k) || building
}

// waiting reports how many followers have joined k's current flight
// (0 if none is in progress). Tests use it to park a known number of
// followers behind a blocked leader before releasing the build.
func (c *flightCache[V]) waiting(k cacheKey) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.inflight[k]; ok {
		return f.waiters.Load()
	}
	return 0
}
