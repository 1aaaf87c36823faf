package serve

import (
	"context"
	"fmt"
	"net/http"
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
