// Package obs is physdep's deterministic observability layer: named
// counters and gauges, monotonic timers, and lightweight nested spans,
// threaded through every hot kernel (internal/par pools, the all-pairs
// BFS sweep, KSP enumeration, annealing restart chains, deployment
// scheduling, experiment fan-out).
//
// The contract mirrors internal/par's: observability is a side channel
// only. Collection never feeds back into results — every experiment
// table is byte-identical whether collection is on or off, for any
// worker count (enforced by the golden-corpus tests in
// internal/experiments). Timings and span durations are wall-clock and
// vary run to run; counters are exact integer state whose totals are
// independent of the order concurrent workers add to them.
//
// Collection is off by default and gated by one atomic load, so
// disabled instrumentation costs almost nothing on the hot paths; the
// E1 overhead benchmark (BenchmarkE1DeployabilityObs) keeps the enabled
// cost under 5%.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

// Enable turns collection on. Instrumentation sites are no-ops until
// then.
func Enable() { enabled.Store(true) }

// Disable turns collection off. Already-collected state is kept until
// Reset.
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on. Hot loops that would pay
// per-item formatting or allocation for instrumentation should check
// this once and skip the whole block when off.
func Enabled() bool { return enabled.Load() }

// registry is the process-global metric store. Counters and gauges are
// atomics behind a read-mostly map, so the steady-state cost of an Add
// is one RLock + one atomic add.
var registry = struct {
	mu       sync.RWMutex
	start    time.Time // epoch for span start offsets
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Uint64 // float64 bits
	roots    []*SpanData               // ring of finished root spans (see keepRoot)
	oldest   int                       // index of the oldest root once the ring is full
}{
	start:    time.Now(),
	counters: map[string]*atomic.Int64{},
	gauges:   map[string]*atomic.Uint64{},
}

func counterCell(name string) *atomic.Int64 {
	registry.mu.RLock()
	c := registry.counters[name]
	registry.mu.RUnlock()
	if c != nil {
		return c
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if c = registry.counters[name]; c == nil {
		c = new(atomic.Int64)
		registry.counters[name] = c
	}
	return c
}

func gaugeCell(name string) *atomic.Uint64 {
	registry.mu.RLock()
	g := registry.gauges[name]
	registry.mu.RUnlock()
	if g != nil {
		return g
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if g = registry.gauges[name]; g == nil {
		g = new(atomic.Uint64)
		registry.gauges[name] = g
	}
	return g
}

// Add adds delta to the named counter. Counter addition commutes, so
// concurrent workers can Add in any order and the snapshot total is
// identical — the order-independence property TestQuickCounterMerge
// checks.
func Add(name string, delta int64) {
	if !enabled.Load() {
		return
	}
	counterCell(name).Add(delta)
}

// Inc is Add(name, 1).
func Inc(name string) { Add(name, 1) }

// SetGauge records the latest value of a named gauge (last write wins;
// concurrent writers race benignly — a gauge is a point-in-time
// reading, not an accumulator).
func SetGauge(name string, v float64) {
	if !enabled.Load() {
		return
	}
	gaugeCell(name).Store(math.Float64bits(v))
}

// MaxGauge raises the named gauge to v if v exceeds its current value
// (high-water marks: peak pool occupancy, deepest queue).
func MaxGauge(name string, v float64) {
	if !enabled.Load() {
		return
	}
	g := gaugeCell(name)
	for {
		old := g.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// noop is the shared disabled-timer stop function, so Time allocates
// nothing when collection is off.
var noop = func() {}

// Time starts a monotonic timer; the returned stop function adds the
// elapsed nanoseconds to counter "<name>.ns" and increments
// "<name>.calls". Use as:
//
//	defer obs.Time("graph.allpairs")()
func Time(name string) func() {
	if !enabled.Load() {
		return noop
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0).Nanoseconds()
		counterCell(name + ".ns").Add(d)
		counterCell(name + ".calls").Add(1)
	}
}

// Snapshot is a consistent copy of all collected state.
type Snapshot struct {
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	Spans    []*SpanData        `json:"spans,omitempty"`
}

// TakeSnapshot copies the current counters, gauges, and the retained
// finished root spans, oldest first in end order. In-flight (un-ended)
// spans are not included.
func TakeSnapshot() Snapshot {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(registry.counters)),
		Gauges:   make(map[string]float64, len(registry.gauges)),
		Spans:    make([]*SpanData, 0, len(registry.roots)),
	}
	for name, c := range registry.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range registry.gauges {
		s.Gauges[name] = math.Float64frombits(g.Load())
	}
	s.Spans = append(s.Spans, registry.roots[registry.oldest:]...)
	s.Spans = append(s.Spans, registry.roots[:registry.oldest]...)
	return s
}

// Reset discards all collected state and restarts the span epoch. The
// enabled/disabled setting is unchanged.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.start = time.Now()
	registry.counters = map[string]*atomic.Int64{}
	registry.gauges = map[string]*atomic.Uint64{}
	registry.roots = nil
	registry.oldest = 0
}
