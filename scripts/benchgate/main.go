// Command benchgate is the repo's benchmark regression gate and the only
// writer of the committed BENCH_<ID>.json baselines: it re-runs the
// experiments whose baselines define the perf trajectory (E1, E7, E16,
// E23, ES1 — the all-pairs BFS, KSP water-filling, topology-engineering,
// planner, and sampled fleet-scale hot paths), measures wall-clock and
// allocations (record.go), and fails if either regresses past a generous
// tolerance. check.sh (and therefore CI) runs it on every commit, so a
// kernel regression cannot ship silently; check.sh's BENCHGATE_SKIP=1
// skips the stage on runners too noisy to time anything.
//
// Usage:
//
//	go run ./scripts/benchgate              # gate against committed baselines
//	go run ./scripts/benchgate -update      # re-measure and rewrite baselines
//
// Tolerances are deliberately loose — wall-clock comparisons across
// machines and loaded CI runners are noisy: wallFactor (3.0) bounds
// measured/baseline wall time, allocFactor (1.25) bounds
// measured/baseline allocations. Allocation counts are nearly
// machine-independent, so the alloc bound is the one that catches real
// regressions (a kernel quietly reverting to a pointer-chasing or
// per-call-allocating path); the wall bound is a backstop for
// order-of-magnitude slowdowns.
//
// Allocations are always gated. Wall-clock is only comparable between
// runs that had the same parallelism available, so it is gated only when
// the current GOMAXPROCS equals the one the baseline records; on a
// mismatch the gate prints an environment note and judges allocations
// alone, rather than either masking a real regression behind
// honest-looking slowdown or failing spuriously. Every verdict table
// prints the environment (gomaxprocs, num_cpu, baseline date) and the
// per-sample wall/alloc deltas even when everything passes, so CI logs
// double as a perf trend record.
//
// -update rewrites each baseline with atomicfile, so an interrupted
// update never leaves a torn baseline behind.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"physdep/internal/atomicfile"
	"physdep/internal/experiments"
	"physdep/internal/par"
)

// gateIDs are the gated experiments, each with a BENCH_<ID>.json.
var gateIDs = []string{"E1", "E7", "E16", "E23", "ES1"}

// reps is the repetitions per point (best wall-clock wins). The gate
// fails when measured wall_ms exceeds baseline × wallFactor or measured
// allocs exceed baseline × allocFactor.
const (
	reps        = 3
	wallFactor  = 3.0
	allocFactor = 1.25
)

func main() { os.Exit(run()) }

func run() int {
	dir := flag.String("dir", ".", "directory holding the BENCH_<ID>.json baselines")
	update := flag.Bool("update", false, "re-measure and atomically rewrite the baselines instead of gating")
	flag.Parse()

	pool := par.Workers()
	defer par.SetWorkers(0)

	failed := false
	for _, id := range gateIDs {
		path := filepath.Join(*dir, "BENCH_"+id+".json")
		baseline, err := load(path)
		if err != nil {
			if *update && os.IsNotExist(err) {
				baseline = nil // fresh baseline: measure the default sweep
			} else {
				fmt.Fprintf(os.Stderr, "benchgate: %s: %v (run `go run ./scripts/benchgate -update` to create baselines)\n", path, err)
				return 2
			}
		}
		counts := []int{1, pool}
		if pool == 1 {
			counts = []int{1, 4} // keep a scaling point even on 1-CPU runners
		}
		if baseline != nil {
			counts = counts[:0]
			for _, s := range baseline.Samples {
				counts = append(counts, s.Workers)
			}
		}
		measured, err := measure(id, counts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", id, err)
			return 2
		}
		if *update {
			if err := atomicfile.WriteJSON(path, measured); err != nil {
				fmt.Fprintf(os.Stderr, "benchgate: write %s: %v\n", path, err)
				return 2
			}
			fmt.Println(path)
			continue
		}
		if !compare(id, baseline, measured) {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL — a hot kernel regressed past tolerance.")
		fmt.Fprintln(os.Stderr, "benchgate: if the regression is intentional, rewrite the baselines with `go run ./scripts/benchgate -update` and commit the diff;")
		fmt.Fprintln(os.Stderr, "benchgate: on a known-noisy runner, run scripts/check.sh with BENCHGATE_SKIP=1.")
		return 1
	}
	if !*update {
		fmt.Println("benchgate: all baselines within tolerance")
	}
	return 0
}

func load(path string) (*entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return &e, nil
}

// measure times one experiment at each worker count after one warm-up
// run (memoization, lazy tables).
func measure(id string, counts []int) (*entry, error) {
	runFn := experiments.Get(id)
	res, err := runFn(context.Background())
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	defer par.SetWorkers(0)
	e, err := record(id, res.Title, counts, reps, func() error {
		_, err := runFn(context.Background())
		return err
	})
	if err != nil {
		return nil, err
	}
	return &e, nil
}

// compare prints the experiment's environment line and a per-worker
// wall/alloc delta table — always, pass or fail, so every CI log carries
// the full perf picture — and reports whether every measured sample
// stayed within tolerance of its baseline twin. Allocations are always
// judged; wall time only when both runs had the same GOMAXPROCS. Worker
// counts present on only one side are skipped — the sweep is driven by
// the baseline, so that only happens on a hand-edited file.
func compare(id string, baseline, measured *entry) bool {
	ok := true
	fmt.Printf("benchgate %s: gomaxprocs %d, num_cpu %d (baseline: gomaxprocs %d, num_cpu %d, recorded %s)\n",
		id, measured.GoMaxProcs, measured.NumCPU, baseline.GoMaxProcs, baseline.NumCPU, baseline.Date)
	gateWall := measured.GoMaxProcs == baseline.GoMaxProcs
	if !gateWall {
		fmt.Println("  note: GOMAXPROCS differs from the baseline's, so wall time is shown but not gated (allocations are)")
	}
	fmt.Printf("  %7s %10s %10s %7s %12s %12s %7s %9s %10s\n",
		"workers", "wall_ms", "base_ms", "Δwall", "allocs", "base_allocs", "Δalloc", "alloc_mb", "verdict")
	for _, m := range measured.Samples {
		var b *sample
		for i := range baseline.Samples {
			if baseline.Samples[i].Workers == m.Workers {
				b = &baseline.Samples[i]
				break
			}
		}
		if b == nil {
			fmt.Printf("  %7d: no baseline sample, skipped\n", m.Workers)
			continue
		}
		wallBad := gateWall && b.WallMS > 0 && m.WallMS > b.WallMS*wallFactor
		allocBad := b.Allocs > 0 && float64(m.Allocs) > float64(b.Allocs)*allocFactor
		verdict := "ok"
		if wallBad || allocBad {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Printf("  %7d %10.1f %10.1f %6.2fx %12d %12d %6.3fx %9.1f %10s\n",
			m.Workers, m.WallMS, b.WallMS, ratio(m.WallMS, b.WallMS),
			m.Allocs, b.Allocs, ratio(float64(m.Allocs), float64(b.Allocs)),
			float64(m.AllocBytes)/(1<<20), verdict)
	}
	if !ok {
		fmt.Printf("  tolerance: wall ≤ %.2fx, allocs ≤ %.3fx\n", wallFactor, allocFactor)
	}
	return ok
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
