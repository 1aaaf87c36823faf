package serve

import (
	"sync"
	"sync/atomic"

	"physdep/internal/obs"
)

// flight is one in-progress computation of a key. The first caller for
// a key becomes the flight's leader and computes; every concurrent
// caller for the same key becomes a follower that blocks on done and
// then takes the leader's outcome. val and ok are written exactly once,
// before done is closed, so readers that return from <-done observe them
// without further synchronization. ok == false means the leader produced
// no result (it failed, was canceled, or was refused admission) —
// followers must then retry on their own rather than inherit the
// leader's outcome (its deadline, its disconnect, its 429 are facts
// about that request, not about the key).
type flight[V any] struct {
	done    chan struct{}
	val     V
	ok      bool
	waiters atomic.Int64 // followers that joined this flight (peak gauge + test seam)
}

// flightTable is the daemon's one single-flight primitive: a per-key
// in-flight index in front of a store. The result cache runs on one for
// response bytes, topoStore on another for built topologies. keep stores
// a leader's successful value; it runs under the table lock, before the
// flight leaves the table, so a caller that misses the flight finds the
// value already stored — never a gap in which a second computation of
// the same key could start. keep must therefore not block or call back
// into the table.
type flightTable[V any] struct {
	mu       sync.Mutex
	inflight map[cacheKey]*flight[V]
	keep     func(cacheKey, V)
}

func newFlightTable[V any](keep func(cacheKey, V)) *flightTable[V] {
	return &flightTable[V]{inflight: map[cacheKey]*flight[V]{}, keep: keep}
}

// begin claims the flight for k. The caller that creates the flight is
// its leader (leader == true) and must eventually call finish, even on
// failure — a leader that never finishes would park its followers until
// their deadlines. Every other caller gets the existing flight to wait
// on.
func (t *flightTable[V]) begin(k cacheKey) (f *flight[V], leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.inflight[k]; ok {
		obs.MaxGauge("serve.flight.waiters.peak", float64(f.waiters.Add(1)))
		return f, false
	}
	f = &flight[V]{done: make(chan struct{})}
	t.inflight[k] = f
	return f, true
}

// finish completes f with the leader's outcome and releases its
// followers. While f is still k's flight (pointer identity), a
// successful val is kept and f leaves the table, so a request arriving
// afterwards starts fresh and finds the store populated. A flight that
// drop already took out of the table is not kept: its followers still
// get val, but the key stays unstored and a newer flight is untouched.
func (t *flightTable[V]) finish(k cacheKey, f *flight[V], val V, ok bool) {
	t.mu.Lock()
	if t.inflight[k] == f {
		if ok {
			t.keep(k, val)
		}
		delete(t.inflight, k)
	}
	t.mu.Unlock()
	f.val, f.ok = val, ok
	close(f.done)
}

// drop takes k's in-progress flight, if any, out of the table and
// reports whether there was one. The next begin for k starts a fresh
// flight, and the dropped one's result is handed to its followers but
// never kept — how /v1/reload forces a rebuild of a topology whose build
// is still running.
func (t *flightTable[V]) drop(k cacheKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.inflight[k]
	delete(t.inflight, k)
	return ok
}

// waiting reports how many followers have joined k's current flight
// (0 if none is in progress). Tests use it to park a known number of
// followers behind a blocked leader before releasing the build.
func (t *flightTable[V]) waiting(k cacheKey) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.inflight[k]
	if !ok {
		return 0
	}
	return f.waiters.Load()
}
