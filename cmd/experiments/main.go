// Command experiments regenerates the paper-claim tables (see DESIGN.md
// §3 for the experiment index).
//
// Usage:
//
//	experiments                         # run everything, in order
//	experiments -run E3,E4              # run a subset
//	experiments -list                   # list experiment IDs and titles
//	experiments -workers 4              # set the worker pool size
//	experiments -manifest m.json        # write the machine-readable run manifest
//	experiments -trace                  # print the span tree + counters to stderr
//	experiments -cpuprofile cpu.pprof   # runtime/pprof CPU profile of the run
//	experiments -memprofile mem.pprof   # heap profile at end of run
//	experiments -update-golden          # rewrite internal/experiments/testdata/golden
//
// Experiments run concurrently (bounded by -workers) but print in
// presentation order; the output is byte-identical for any worker count,
// and whether or not observability collection (-manifest/-trace) is on —
// the golden-corpus tests in internal/experiments enforce both.
//
// The manifest (internal/experiments/manifest.go) records per-experiment
// wall time and allocations plus the full span forest (each
// core.EvaluateCtx's placement/cabling/deploy/twin phase breakdown),
// kernel counters, and per-worker task counts. The committed
// BENCH_<ID>.json perf baselines are recorded and gated by
// scripts/benchgate, not by this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"physdep/internal/atomicfile"
	"physdep/internal/experiments"
	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
)

func main() {
	os.Exit(run())
}

func run() (exit int) {
	// fail reports an output-writing error and makes the run exit nonzero
	// without masking an earlier failure code. Deferred flushes use it so
	// a manifest or profile that never hit the disk cannot look like
	// success (the named return is what lets a defer change the code).
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		if exit == 0 {
			exit = 1
		}
	}
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	manifestPath := flag.String("manifest", "", "write a machine-readable run manifest (spans, counters, env) to this JSON file")
	trace := flag.Bool("trace", false, "print the span tree and counters to stderr after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at end of run to this file")
	updateGolden := flag.Bool("update-golden", false, "rewrite the golden experiment tables under internal/experiments/testdata/golden (run from the repo root) instead of printing")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no deadline); partial results are flushed and the exit code is nonzero")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context instead of killing the process, so
	// a ^C still flushes the manifest (marked interrupted) and profiles. A
	// second signal kills the process the usual way (NotifyContext resets
	// the handlers once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	if *manifestPath != "" || *trace {
		obs.Enable()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("cpuprofile: %w", err))
			}
		}()
	}
	// Observability outputs are flushed however the run exits, so a
	// failing experiment still leaves a manifest to debug from. A canceled
	// run flushes too, with the manifest marked "interrupted": true — the
	// partial record is the whole point of graceful cancellation.
	defer func() {
		if *manifestPath != "" || *trace {
			snap := obs.TakeSnapshot()
			if *trace {
				fmt.Fprint(os.Stderr, snap.RenderTrace())
			}
			if *manifestPath != "" {
				// The manifest itself is built in-memory by the library
				// (experiments.BuildManifest — the daemon serves the same
				// structure from /debug/obs); only this CLI sink writes files.
				if err := atomicfile.WriteJSON(*manifestPath, experiments.BuildManifest(snap, ctx.Err() != nil)); err != nil {
					fail(fmt.Errorf("manifest: %w", err))
				}
			}
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(fmt.Errorf("memprofile: %w", err))
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(fmt.Errorf("memprofile: %w", err))
			}
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("memprofile: %w", err))
			}
		}
	}()

	order := experiments.Order()

	if *list {
		for _, o := range experiments.RunManyCtx(ctx, order) {
			if o.Err != nil {
				fmt.Fprintf(os.Stderr, "%s: error: %v\n", o.ID, o.Err)
				continue
			}
			fmt.Printf("%-4s %s\n", o.ID, o.Res.Title)
		}
		return diagnoseCancel(ctx, 0)
	}

	ids := order
	if *runList != "" {
		ids = nil
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if experiments.Get(id) == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				return 2
			}
			ids = append(ids, id)
		}
	}

	if *updateGolden {
		if err := writeGolden(ctx, ids, filepath.Join("internal", "experiments", "testdata", "golden")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return diagnoseCancel(ctx, 1)
		}
		return diagnoseCancel(ctx, 0)
	}

	failed := 0
	for _, o := range experiments.RunManyCtx(ctx, ids) {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", o.ID, o.Err)
			failed++
			continue
		}
		fmt.Println(o.Res.Render())
	}
	if failed > 0 {
		return diagnoseCancel(ctx, 1)
	}
	return diagnoseCancel(ctx, 0)
}

// diagnoseCancel maps a canceled context onto the exit code: if the run
// was cut short it prints the one-line cause (^C vs deadline) and forces
// a nonzero exit, otherwise it passes code through untouched. Called on
// every exit path so a cancellation can never masquerade as success.
func diagnoseCancel(ctx context.Context, code int) int {
	err := ctx.Err()
	if err == nil {
		return code
	}
	// The kernels classify this as physerr.ErrCanceled; print the
	// classified form so scripts can match one string for both the CLI
	// diagnostic and in-table experiment errors.
	fmt.Fprintf(os.Stderr, "experiments: %v\n", physerr.Canceled(err))
	if code == 0 {
		return 1
	}
	return code
}

// writeGolden regenerates the golden corpus, and is its only writer (the
// tests only read it): one <ID>.txt per selected experiment, holding
// exactly Result.Render(). The committed files are
// the canonical experiment tables the regression tests diff against —
// rewrite them only when a table is meant to change, and review the
// diff like code. All experiments run before any file is touched, and
// each file is replaced atomically, so a failed or canceled update can
// never leave a half-written or half-updated corpus behind.
func writeGolden(ctx context.Context, ids []string, dir string) error {
	outs := experiments.RunManyCtx(ctx, ids)
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.ID, o.Err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, o := range outs {
		path := filepath.Join(dir, o.ID+".txt")
		if err := atomicfile.WriteFile(path, []byte(o.Res.Render())); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}
