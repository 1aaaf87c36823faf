package main

import (
	"fmt"
	"runtime"
	"time"

	"physdep/internal/par"
)

// sample is one (worker count → cost) measurement point.
type sample struct {
	Workers         int     `json:"workers"`
	WallMS          float64 `json:"wall_ms"` // best of reps
	Allocs          uint64  `json:"allocs"`
	AllocBytes      uint64  `json:"alloc_bytes"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// entry is the BENCH_<ID>.json record of one experiment: its scaling
// curve over the swept worker counts, with the environment it was
// measured in.
type entry struct {
	ID         string   `json:"id"`
	Title      string   `json:"title"`
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Reps       int      `json:"reps"`
	Date       string   `json:"date"`
	Samples    []sample `json:"samples"`
}

// record times run at each worker count in counts, set through
// par.SetWorkers (the caller restores its own width afterwards): reps
// timed runs per count (at least one), keeping the best wall-clock and
// that run's allocations. The caller warms run up first (memoization,
// lazy tables), so no count pays for it. When the sweep starts at one
// worker, every later sample records its speedup over that serial time.
func record(id, title string, counts []int, reps int, run func() error) (entry, error) {
	if reps < 1 {
		reps = 1
	}
	e := entry{
		ID: id, Title: title,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Reps: reps, Date: time.Now().UTC().Format("2006-01-02"),
	}
	for _, w := range counts {
		par.SetWorkers(w)
		best := sample{Workers: w}
		for r := 0; r < reps; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			if err := run(); err != nil {
				return entry{}, fmt.Errorf("workers=%d: %w", w, err)
			}
			wall := float64(time.Since(t0).Microseconds()) / 1000
			runtime.ReadMemStats(&m1)
			if r == 0 || wall < best.WallMS {
				best.WallMS = wall
				best.Allocs = m1.Mallocs - m0.Mallocs
				best.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
			}
		}
		e.Samples = append(e.Samples, best)
	}
	if len(e.Samples) > 1 && e.Samples[0].Workers == 1 {
		serial := e.Samples[0].WallMS
		for i := range e.Samples[1:] {
			if e.Samples[i+1].WallMS > 0 {
				e.Samples[i+1].SpeedupVsSerial = serial / e.Samples[i+1].WallMS
			}
		}
	}
	return e, nil
}
