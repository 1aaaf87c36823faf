package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"physdep/internal/core"
	"physdep/internal/obs"
	"physdep/internal/par"
)

// TestEvaluateKnobCaps: each work knob is accepted at its cap and
// refused one past it with a 422, before any topology is built. The
// at-cap request runs under an expired deadline, so its 504 shows it got
// past validation without paying for a million annealing steps.
func TestEvaluateKnobCaps(t *testing.T) {
	h := New(Config{}).Handler()
	for _, c := range []struct {
		field string
		cap   int
	}{
		{"techs", core.MaxTechs},
		{"anneal", core.MaxPlacementSteps},
		{"restarts", core.MaxPlacementRestarts},
	} {
		t.Run(c.field, func(t *testing.T) {
			body := func(v int) string { return fmt.Sprintf(`{"topo":%s,%q:%d}`, smallTopo, c.field, v) }
			if rr := do(h, expiredCtx(t), "POST", "/v1/evaluate", body(c.cap)); rr.Code != http.StatusGatewayTimeout {
				t.Fatalf("%s=%d: status %d, want 504 (past validation): %s", c.field, c.cap, rr.Code, rr.Body)
			}
			before := obs.TakeSnapshot()
			rr := do(h, nil, "POST", "/v1/evaluate", body(c.cap+1))
			after := obs.TakeSnapshot()
			if rr.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s=%d: status %d, want 422: %s", c.field, c.cap+1, rr.Code, rr.Body)
			}
			if d := counterDelta(before, after, "serve.store.build"); d != 0 {
				t.Fatalf("%s=%d built %d topologies before refusing", c.field, c.cap+1, d)
			}
		})
	}
}

// TestWhatIfCaps: trials and the number of fail_fracs are accepted at
// their caps and refused one past them with a 422, before any topology
// is built, as TestEvaluateKnobCaps does for evaluate's knobs.
func TestWhatIfCaps(t *testing.T) {
	h := New(Config{}).Handler()
	fracs := func(n int) string { return "[" + strings.TrimSuffix(strings.Repeat("0,", n), ",") + "]" }
	for _, c := range []struct {
		field string
		cap   int
		value func(int) string
	}{
		{"trials", core.MaxWhatIfTrials, strconv.Itoa},
		{"fail_fracs", core.MaxWhatIfFracs, fracs},
	} {
		t.Run(c.field, func(t *testing.T) {
			body := func(v int) string { return fmt.Sprintf(`{"topo":%s,%q:%s}`, smallTopo, c.field, c.value(v)) }
			if rr := do(h, expiredCtx(t), "POST", "/v1/whatif", body(c.cap)); rr.Code != http.StatusGatewayTimeout {
				t.Fatalf("%s=%d: status %d, want 504 (past validation): %s", c.field, c.cap, rr.Code, rr.Body)
			}
			before := obs.TakeSnapshot()
			rr := do(h, nil, "POST", "/v1/whatif", body(c.cap+1))
			after := obs.TakeSnapshot()
			if rr.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s=%d: status %d, want 422: %s", c.field, c.cap+1, rr.Code, rr.Body)
			}
			if d := counterDelta(before, after, "serve.store.build"); d != 0 {
				t.Fatalf("%s=%d built %d topologies before refusing", c.field, c.cap+1, d)
			}
		})
	}
}

// TestMetricsBoundedByRestarts: the /metrics exposition does not grow
// with the restart counts requests ask for. Before, every chain index
// ever run added its own accepted/rejected counters.
func TestMetricsBoundedByRestarts(t *testing.T) {
	h := New(Config{}).Handler()
	// Per-worker task counters are bounded by the pool width, but each
	// appears only once its worker first runs a task. One loop whose
	// tasks all wait for each other runs one task on every worker, so
	// none of those names can first show up between the requests below.
	var started sync.WaitGroup
	started.Add(par.Workers())
	if err := par.ForCtx(context.Background(), par.Workers(), func(int) error {
		started.Done()
		started.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lines := -1
	for _, restarts := range []int{1, 50, 400} {
		rr := do(h, nil, "POST", "/v1/evaluate", fmt.Sprintf(`{"topo":%s,"anneal":20,"restarts":%d}`, smallTopo, restarts))
		if rr.Code != http.StatusOK {
			t.Fatalf("restarts=%d: status %d: %s", restarts, rr.Code, rr.Body)
		}
		m := do(h, nil, "GET", "/metrics", "")
		n := strings.Count(m.Body.String(), "\n")
		if lines >= 0 && n != lines {
			t.Fatalf("restarts=%d: /metrics has %d lines, %d after restarts=1", restarts, n, lines)
		}
		lines = n
	}
}

// TestCardinalityNet sends 10,000 mixed requests (evaluate, stats,
// whatif and reload; hits, misses, evictions and 422s) through one
// daemon. It holds the two things a long-running physdepd must keep
// bounded whatever it is asked: the retained root spans stay within
// the obs registry's cap of 1024, and /metrics has the same number of
// lines after the first 100 requests as after all 10,000, so no metric
// name is minted per request, key or seed.
func TestCardinalityNet(t *testing.T) {
	const requests, rounds = 10000, 10 // one round of each kind per 10 requests
	h := New(Config{CacheEntries: 16}).Handler()
	// Names that appear once and stay are minted before the count starts:
	// one task on every pool worker (as in TestMetricsBoundedByRestarts),
	// and a full root registry, so obs.spans.dropped already exists.
	var started sync.WaitGroup
	started.Add(par.Workers())
	if err := par.ForCtx(context.Background(), par.Workers(), func(int) error {
		started.Done()
		started.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 1024; i++ {
		obs.StartSpan("fill").End()
	}
	topo := func(seed int) string {
		return fmt.Sprintf(`{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":%d}`, seed)
	}
	lines := func() int { return strings.Count(do(h, nil, "GET", "/metrics", "").Body.String(), "\n") }
	early := -1
	for i := 0; i < requests; i++ {
		r := i / rounds
		// 24 evaluate seeds cycle through a 16-entry result cache, so
		// each round's first evaluate misses and its repeat hits; the
		// four stats and whatif fabrics stay cached and mostly hit.
		var path, body string
		want := http.StatusOK
		switch i % rounds {
		case 0, 1:
			path, body = "/v1/evaluate", fmt.Sprintf(`{"topo":%s,"seed":%d}`, topo(1+r%4), 1+r%24)
		case 2, 3:
			path, body = "/v1/stats", fmt.Sprintf(`{"topo":%s}`, topo(1+r%4))
		case 4, 5:
			path, body = "/v1/whatif", fmt.Sprintf(`{"topo":%s,"trials":1,"fail_fracs":[0,0.1]}`, topo(1+r%4))
		case 6:
			path, body = "/v1/reload", fmt.Sprintf(`{"topo":%s}`, topo(1+(r+1)%4))
		case 7:
			path, body = "/v1/evaluate", fmt.Sprintf(`{"topo":%s,"seed":%d}`, topo(5+r%3), 1+r%5)
		case 8:
			path, body, want = "/v1/whatif", fmt.Sprintf(`{"topo":%s,"trials":%d}`, topo(1), core.MaxWhatIfTrials+1), http.StatusUnprocessableEntity
		case 9:
			path, body = "/v1/stats", fmt.Sprintf(`{"topo":%s}`, topo(5+r%3))
		}
		if rr := do(h, nil, "POST", path, body); rr.Code != want {
			t.Fatalf("request %d %s %s: status %d, want %d: %s", i, path, body, rr.Code, want, rr.Body)
		}
		if i+1 == 100 {
			early = lines()
		}
	}
	if n := lines(); n != early {
		t.Errorf("/metrics has %d lines after %d requests, %d after the first 100", n, requests, early)
	}
	s := obs.TakeSnapshot()
	if len(s.Spans) > 1024 {
		t.Errorf("%d root spans retained, want at most 1024", len(s.Spans))
	}
	if s.Counters["serve.cache.hit"] == 0 || s.Counters["serve.cache.miss"] == 0 || s.Counters["serve.cache.evict"] == 0 {
		t.Errorf("hits %d, misses %d, evictions %d: want all three nonzero",
			s.Counters["serve.cache.hit"], s.Counters["serve.cache.miss"], s.Counters["serve.cache.evict"])
	}
}
