package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles compares two -all result files metric by metric under
// BENCHMARK.json's bounds and prints one row per workload and metric. It
// exits 1 if any metric regressed. Timed metrics are only comparable at
// the same GOMAXPROCS; across a difference it refuses
// (exit 2) after printing allocations, which do not depend on it.
func compareFiles(spec benchSpec, basePath, changePath string, stdout, stderr io.Writer) int {
	var base, change allResults
	for _, f := range []struct {
		path string
		into *allResults
	}{{basePath, &base}, {changePath, &change}} {
		b, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(b, f.into)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	metrics := spec.EndToEnd
	sameProcs := base.Env.GOMAXPROCS == change.Env.GOMAXPROCS
	if !sameProcs {
		fmt.Fprintf(stdout, "GOMAXPROCS differs (%d in %s, %d in %s): timed metrics are not comparable; allocations only\n",
			base.Env.GOMAXPROCS, basePath, change.Env.GOMAXPROCS, changePath)
		metrics = nil
		for _, m := range spec.EndToEnd {
			if m.Name == "allocs_per_op" {
				metrics = append(metrics, m)
			}
		}
	}
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %9s %7s  %s\n",
		"workload", "metric", "base", "change", "delta", "bound", "verdict")
	regressed := false
	for _, wl := range spec.Workloads {
		for _, m := range metrics {
			b, _ := values(base.Runs[wl.Name], m.Name)
			c, _ := values(change.Runs[wl.Name], m.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %9s %7s  missing\n", wl.Name, m.Name, "-", "-", "-", "-")
				continue
			}
			v := verdict(m, b, c)
			regressed = regressed || v == "regressed"
			mb, mc := median(b), median(c)
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, mb, mc, 100*ratio(mc-mb, mb), 100*m.Bound, v)
		}
	}
	switch {
	case !sameProcs:
		return 2
	case regressed:
		return 1
	}
	return 0
}

// verdict judges change against base for one metric: "regressed" when
// the change's median is worse than the base median by more than the
// bound, "unresolved" when the base's own spread (interquartile range
// over median) is wider than the bound — unless every change run beats
// every base run — and "ok" otherwise.
func verdict(m metricSpec, base, change []float64) string {
	mb, mc := median(base), median(change)
	worse := ratio(mc-mb, mb)
	if m.Better == "higher" {
		worse = -worse
	}
	spread := 0.0
	if q1, q3, ok := quartiles(base); ok {
		spread = ratio(q3-q1, mb)
	}
	switch {
	case spread > m.Bound:
		if allBetter(m, base, change) {
			return "ok"
		}
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every change value beats every base value.
func allBetter(m metricSpec, base, change []float64) bool {
	for _, b := range base {
		for _, c := range change {
			if (m.Better == "higher") != (c > b) || c == b {
				return false
			}
		}
	}
	return true
}
