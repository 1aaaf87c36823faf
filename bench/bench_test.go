package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// ops returns the first n requests of a generator.
func ops(gen generator, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = gen(i)
	}
	return out
}

// shape is what the seed must not change about an op: its kind and, for
// the miss workloads, the fabric family and size it asks about.
func shape(rq request, withSize bool) string {
	topo := rq.topo()
	if topo == nil || !withSize {
		return rq.kind
	}
	return fmt.Sprintf("%s %s n=%d k=%d d=%d", rq.kind, topo.Name, topo.N, topo.K, topo.D)
}

func TestOpListsAreSeeded(t *testing.T) {
	gens := []struct {
		name     string
		mk       func(seed uint64) generator
		withSize bool // serve-hot's fabric sizes are drawn from the seed
	}{
		{"evaluate-miss", evaluateMissGen, true},
		{"stats-miss", statsMissGen, true},
		{"serve-hot", func(seed uint64) generator { return newHotGen(seed).gen }, false},
	}
	for _, g := range gens {
		name := g.name
		a, b, c := ops(g.mk(1), 300), ops(g.mk(1), 300), ops(g.mk(2), 300)
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].path != b[i].path {
				t.Fatalf("%s: op %d differs between two lists from seed 1", name, i)
			}
			// The seed changes the inputs, never the mix of op kinds and sizes.
			if x, y := shape(a[i], g.withSize), shape(c[i], g.withSize); x != y {
				t.Fatalf("%s: op %d is %s under seed 1 but %s under seed 2", name, i, x, y)
			}
			differs = differs || !bytes.Equal(a[i].body, c[i].body)
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 give the same op list", name)
		}
	}
}

func TestMissWorkloadKeysAreDistinct(t *testing.T) {
	for name, gen := range map[string]generator{"evaluate-miss": evaluateMissGen(7), "stats-miss": statsMissGen(7)} {
		seen := map[string]int{}
		for i, rq := range ops(gen, 5000) {
			if j, dup := seen[string(rq.body)]; dup {
				t.Fatalf("%s: ops %d and %d send the same request", name, j, i)
			}
			seen[string(rq.body)] = i
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{100, 0.90, 90, true}, // exactly ten samples beyond
		{99, 0.90, 90, false}, // nine beyond: p90 is not reported
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{1, 0.90, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.report {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is reported")
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{{seq(10), 2.75, 8.25}, {[]float64{2, 1}, 0.75, 2.25}} {
		if q1, q3, ok := quartiles(c.xs); !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // ends after root
		{Name: "a1", Parent: 1, Start: 15, End: 20},
		{Name: "other", Parent: -1, Start: 0, End: 7},
	}
	// root: 100 minus the union [10,60] and [90,100].
	want := []int64{40, 25, 30, 30, 5, 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_ops", Better: "higher", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		m            metricSpec
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{10.5, 10.4, 10.6}, "ok"},
		{lower, steady, []float64{12, 12.1, 11.9}, "regressed"},
		{lower, steady, []float64{8, 8.1, 7.9}, "ok"},
		{higher, steady, []float64{8, 8.1, 7.9}, "regressed"},
		{higher, steady, []float64{12, 12.1, 11.9}, "ok"},
		{lower, []float64{5, 10, 15, 20}, []float64{12, 13}, "unresolved"},
		{lower, []float64{5, 10, 15, 20}, []float64{1, 2}, "ok"}, // every change run is better
	} {
		if got := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.base, c.change, got, c.want)
		}
	}
}

func TestMetricsMatchSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		spec []metricSpec
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%s: code emits %d metrics, BENCHMARK.json lists %d", c.kind, len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("%s[%d]: code emits %s (%s), BENCHMARK.json lists %s (%s)",
					c.kind, i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code has %s, BENCHMARK.json %s", i, w.name, spec.Workloads[i].Name)
		}
	}
}

// smoke runs a workload for a few ops and checks the result's shape.
func smoke(t *testing.T, name string, trace bool, maxOps int) result {
	t.Helper()
	res, _, spans, err := runWorkload(config{workload: name, seed: 3, seconds: 60, trace: trace,
		setups: 1, maxOps: maxOps})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != maxOps {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		if len(spans) == 0 {
			t.Errorf("%s: a traced run recorded no spans", name)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	return res
}

func TestSmokeAllWorkloads(t *testing.T) {
	t0 := time.Now()
	for _, w := range workloads {
		res := smoke(t, w.name, false, 4)
		for _, d := range endToEnd {
			if v := res.Metrics[d.name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v)
			}
		}
	}
	// Each run was given 60 seconds, so finishing all of them well inside
	// one run's time shows that the op limit, not the clock, ended them.
	// It takes about 2s on an idle 2-CPU machine; the limit leaves room
	// for a busy one.
	d := time.Since(t0)
	t.Logf("smoke run of every workload took %v", d)
	if d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke run of every workload took %v, want under 10s", d)
	}
}

func TestTracedReplayMatchesHandler(t *testing.T) {
	// serve-hot's first computed key is the fresh pair at ops 50 and 51.
	for name, n := range map[string]int{"evaluate-miss": 6, "stats-miss": 6, "serve-hot": 60} {
		res := smoke(t, name, true, n)
		if name == "evaluate-miss" && res.Metrics["twin.check_share"].Value <= 0 {
			t.Errorf("evaluate-miss: twin.check_share = %v, want > 0", res.Metrics["twin.check_share"].Value)
		}
		if res.Metrics["topology.build_ms"].Value <= 0 {
			t.Errorf("%s: topology.build_ms = %v, want > 0", name, res.Metrics["topology.build_ms"].Value)
		}
	}
}
