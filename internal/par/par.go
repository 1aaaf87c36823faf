// Package par is physdep's deterministic parallelism substrate. Every
// hot kernel in the repo (all-pairs BFS stats, KSP path enumeration,
// annealing restart chains, experiment fan-out) runs through the bounded
// worker pools here, under one contract: the result of a parallel run is
// byte-identical to the serial run, for any worker count.
//
// The contract is kept by construction, not by locking discipline:
//
//   - MapCtx/ForCtx assign work by index and deliver results by index, so
//     output ordering never depends on scheduling.
//   - Errors are reported from the lowest failing index, the same error a
//     serial left-to-right sweep would surface.
//   - Randomized kernels draw a per-index seed (Rand/SeedAt) instead of
//     sharing one stream, so each work item sees the same random sequence
//     no matter which worker runs it.
//   - Reductions that need associativity (sums, mins, maxes over exact
//     integer state) are the caller's job; ForWorkerCtx exposes a stable
//     worker id so per-worker partials can be combined in worker order.
//   - Cancellation is checked at task hand-out, never inside a running
//     task, so a loop that completes under a live context produced
//     exactly the task executions — and therefore exactly the bytes — of
//     a loop under a context that cannot cancel. A canceled loop reports
//     physerr.ErrCanceled from the first index it refused to hand out,
//     through the same lowest-index channel as task errors.
//
// Worker count defaults to GOMAXPROCS and is overridable — upward too,
// for scheduling experiments — via SetWorkers (the -workers flag).
package par

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"physdep/internal/obs"
	"physdep/internal/physerr"
)

var workerOverride atomic.Int64

// Workers returns the worker count parallel loops will use: the
// SetWorkers override if set, else GOMAXPROCS.
func Workers() int {
	if v := workerOverride.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the pool width for the whole process; n <= 0
// removes the override. Intended for flags (-workers) and determinism
// tests; concurrent loops started before the call keep their old width.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// ForCtx runs fn(i) for i in [0, n), fanning out across Workers()
// goroutines. On error it returns the error from the lowest failing
// index and stops handing out higher indices (some may already be in
// flight). ctx is checked before each index is handed out, and a done
// context fails the loop with an error matching physerr.ErrCanceled (and
// ctx.Err() itself). Tasks already in flight run to completion —
// cancellation never interrupts fn mid-task, which keeps every completed
// run byte-identical whatever context it ran under. With one worker it
// degenerates to a plain loop with zero goroutine overhead.
func ForCtx(ctx context.Context, n int, fn func(i int) error) error {
	return ForWorkerCtx(ctx, n, func(_, i int) error { return fn(i) })
}

// ForWorkerCtx is ForCtx with a stable worker id in [0, Workers())
// passed to fn, so callers can keep per-worker reusable scratch (BFS
// dist buffers, KSP enumeration state) without synchronization: a worker
// id is never active on two goroutines at once.
func ForWorkerCtx(ctx context.Context, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers()
	if w > n {
		w = n
	}
	// Pool-occupancy accounting is a side channel: loops and widths are
	// counted once per fan-out, tasks once per worker drain, so enabling
	// collection adds no per-item work inside fn.
	collect := obs.Enabled()
	if collect {
		obs.Inc("par.loops")
		obs.Add("par.loop_width", int64(w))
		obs.MaxGauge("par.peak_width", float64(w))
		obs.SetGauge("par.workers", float64(Workers()))
	}
	// A context that can never be canceled (Background, TODO) has a nil
	// Done channel; skipping its Err() call keeps such loops free of any
	// per-item cancellation cost.
	cancellable := ctx.Done() != nil
	if w <= 1 {
		i := 0
		for ; i < n; i++ {
			if cancellable {
				if err := ctx.Err(); err != nil {
					countTasks(collect, 0, i)
					return physerr.Canceled(err)
				}
			}
			if err := fn(0, i); err != nil {
				countTasks(collect, 0, i+1)
				return err
			}
		}
		countTasks(collect, 0, n)
		return nil
	}
	var (
		next  atomic.Int64
		stop  atomic.Int64 // lowest failing index so far; n = none
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	stop.Store(int64(n))
	// fail records err as the loop result if i is the lowest failing
	// index seen so far — the same error a serial left-to-right sweep
	// would surface first.
	fail := func(i int64, err error) {
		mu.Lock()
		if i < stop.Load() {
			stop.Store(i)
			first = err
		}
		mu.Unlock()
	}
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ran := 0
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i >= stop.Load() {
					countTasks(collect, wk, ran)
					return
				}
				// Hand-out check: a done context refuses index i before any
				// of its work runs, so every executed task is a complete
				// task and the completed prefix is bit-for-bit the one an
				// uncancellable loop would have produced.
				if cancellable {
					if err := ctx.Err(); err != nil {
						fail(i, physerr.Canceled(err))
						countTasks(collect, wk, ran)
						return
					}
				}
				ran++
				if err := fn(wk, int(i)); err != nil {
					fail(i, err)
				}
			}
		}(wk)
	}
	wg.Wait()
	return first
}

// countTasks records one worker's executed-task count: the process-wide
// total plus a per-worker-id counter, the occupancy breakdown the run
// manifest reports.
func countTasks(collect bool, wk, ran int) {
	if !collect || ran == 0 {
		return
	}
	obs.Add("par.tasks", int64(ran))
	obs.Add(fmt.Sprintf("par.worker.%02d.tasks", wk), int64(ran))
}

// Gate is a bounded admission counter: at most Cap callers hold it at
// once, and an over-capacity TryEnter fails immediately instead of
// queueing. It is the admission-control primitive the evaluation daemon
// (internal/serve) layers over the worker pools — each admitted request
// fans out through ForCtx/MapCtx under the shared Workers() budget, so
// bounding admissions bounds the number of loops competing for that
// budget; a burst past the gate's capacity is refused up front (HTTP
// 429) rather than oversubscribing the pools.
type Gate struct {
	cap int64
	cur atomic.Int64
}

// NewGate returns a gate admitting at most n concurrent holders; n < 1
// is clamped to 1 (a gate that admits nobody would deadlock its user).
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{cap: int64(n)}
}

// TryEnter claims a slot if one is free and reports whether it did.
// Every successful TryEnter must be paired with exactly one Leave.
func (g *Gate) TryEnter() bool {
	if g.cur.Add(1) > g.cap {
		g.cur.Add(-1)
		return false
	}
	return true
}

// Leave releases a slot claimed by a successful TryEnter. An unpaired
// Leave panics — but only after restoring the counter: the daemon's
// HTTP layer recovers handler panics, so a decrement left in place
// would hold the count negative and quietly admit more than Cap
// concurrent holders from then on. The clamp keeps the gate's bound
// intact and par.gate.underflow makes the bug visible in /metrics.
func (g *Gate) Leave() {
	if g.cur.Add(-1) < 0 {
		g.cur.Add(1)
		obs.Inc("par.gate.underflow")
		panic("par: Gate.Leave without a matching TryEnter")
	}
}

// InFlight returns the number of slots currently held.
func (g *Gate) InFlight() int { return int(g.cur.Load()) }

// Cap returns the gate's admission capacity.
func (g *Gate) Cap() int { return int(g.cap) }

// MapCtx runs fn(i) for i in [0, n) in parallel (see ForCtx) and returns
// the results in input order. On error — a task's, or an ErrCanceled
// from a done context — the results are discarded and the lowest failing
// index's error is returned.
func MapCtx[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForCtx(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Rand returns the deterministic random stream for work item i under
// base seed. Streams for distinct (seed, i) are independent PCGs, and a
// given (seed, i) always yields the same sequence — the property that
// makes randomized parallel kernels reproducible across worker counts.
func Rand(seed uint64, i int) *rand.Rand {
	s := splitmix64(seed + uint64(i)*0x9e3779b97f4a7c15)
	return rand.New(rand.NewPCG(s, splitmix64(s)))
}

// SeedAt derives the scalar seed for chain/work-item i under base seed —
// the same derivation Rand uses, exposed for kernels (annealing restart
// chains) that seed their own generators.
func SeedAt(seed uint64, i int) uint64 {
	return splitmix64(seed + uint64(i)*0x9e3779b97f4a7c15)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used
// to turn (seed, index) into independent stream seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
