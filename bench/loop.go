package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opResult is one operation as a client saw it: its kind, the time the
// system took (the call into the handler, not the benchmark's input
// building or output checks), and whether it failed or returned a wrong
// output.
type opResult struct {
	kind string
	d    time.Duration
	err  error
}

// session is one set-up instance of a workload: its generated inputs,
// the system under test, and the checks on the system's outputs.
type session interface {
	// start is called once before the measured loop; trace says whether
	// the run is traced.
	start(trace bool)
	// op runs operation i. With a non-nil tracer it records a span around
	// the call into the program.
	op(i int, tr *tracer) opResult
	// verify runs the output checks that compare against a direct
	// computation made outside the timed loop; it returns one error per
	// failed operation.
	verify() []error
	// layers adds the per-layer metrics of a traced run that attempted
	// the given number of ops: the program's own counters, and a
	// decomposed replay of operations under tr.
	layers(tr *tracer, m map[string]float64, attempted int) error
}

// loopStats is what a closed loop measured.
type loopStats struct {
	lat       []float64 // ms per op, every client
	traced    []float64 // ms per traced op (trace runs)
	plain     []float64 // ms per untraced op (trace runs)
	kinds     map[string]int
	attempted int
	failed    int
	errs      []string // the first few failures
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	gcSec     float64 // CPU seconds the GC spent, by the runtime's estimate
	totalSec  float64 // CPU seconds in all, by the same estimate
}

// add merges the stats of a later loop into st.
func (st *loopStats) add(o loopStats) {
	st.lat = append(st.lat, o.lat...)
	st.traced = append(st.traced, o.traced...)
	st.plain = append(st.plain, o.plain...)
	if st.kinds == nil {
		st.kinds = map[string]int{}
	}
	for k, n := range o.kinds {
		st.kinds[k] += n
	}
	st.attempted += o.attempted
	st.failed += o.failed
	st.errs = append(st.errs, o.errs...)
	st.wall += o.wall
	st.cpu += o.cpu
	st.mallocs += o.mallocs
	st.gcSec += o.gcSec
	st.totalSec += o.totalSec
}

// closedLoop runs ops first, first+1, ... with the given number of
// clients, each sending its next op only when the previous one has
// returned, until dur has passed or op index end is reached (end 0: only
// the clock ends the loop). Indices are handed out in order, so the ops
// run are exactly first..first+attempted-1. With a tracer, one op in ten
// is traced, picked by a hash of its index so the choice follows none of
// the workloads' op cycles.
func closedLoop(s session, clients, first int, dur time.Duration, end int, tr *tracer) loopStats {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([]loopStats, clients)
	var wg sync.WaitGroup

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGCCPU()
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := range per {
		wg.Add(1)
		go func(cs *loopStats) {
			defer wg.Done()
			cs.kinds = map[string]int{}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if end > 0 && i >= end {
					return
				}
				var optr *tracer
				if mix(0x7ace, uint64(i))%10 == 0 {
					optr = tr
				}
				r := s.op(i, optr)
				ms := float64(r.d.Nanoseconds()) / 1e6
				switch {
				case optr != nil:
					cs.traced = append(cs.traced, ms)
				case tr != nil:
					cs.plain = append(cs.plain, ms)
				}
				cs.lat = append(cs.lat, ms)
				cs.kinds[r.kind]++
				if r.err != nil {
					cs.failed++
					if len(cs.errs) < 5 {
						cs.errs = append(cs.errs, fmt.Sprintf("op %d (%s): %v", i, r.kind, r.err))
					}
				}
			}
		}(&per[c])
	}
	wg.Wait()
	st := loopStats{wall: time.Since(t0), cpu: cpuTime() - cpu0, kinds: map[string]int{}}
	runtime.ReadMemStats(&ms1)
	gc1 := readGCCPU()
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.gcSec, st.totalSec = gc1[0]-gc0[0], gc1[1]-gc0[1]
	for _, cs := range per {
		st.add(cs)
	}
	st.attempted = len(st.lat)
	return st
}

// cpuTime is the process's user plus system CPU time. A kernel with
// paravirtual steal-time accounting leaves out the time the host ran
// something else on this process's vCPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readGCCPU returns the runtime's estimate of the CPU seconds spent in
// the GC and in total.
func readGCCPU() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// heapLiveMB collects garbage and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a tail percentile before
// it is reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// and whether at least minBeyond samples lie above it; a tail percentile
// is reported only then, so p90 needs at least 100 samples.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps float error from moving the rank: 0.9*100 is
	// 90.00000000000001 in float64.
	k := max(int(math.Ceil(p*float64(n)-1e-9))-1, 0)
	return sorted[k], n-1-k >= minBeyond
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (exclusive), which needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}
