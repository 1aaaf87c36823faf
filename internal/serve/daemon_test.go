package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"physdep/internal/obs"
)

// smallTopo is the cheap fabric the daemon tests evaluate: a 16-switch
// jellyfish, microseconds of kernel work.
const smallTopo = `{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":7}`

// do drives the daemon handler directly with an optional request
// context — which is exactly how net/http delivers client disconnects
// and deadlines, so a canceled ctx here is a faithful mid-flight
// disconnect.
func do(h http.Handler, ctx context.Context, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func counterDelta(before, after obs.Snapshot, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}

// expiredCtx returns a context whose deadline is already in the past —
// Err() is DeadlineExceeded from the first poll, so deadline tests
// cannot race the timer.
func expiredCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	t.Cleanup(cancel)
	return ctx
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestDaemonErrorMapping pins the HTTP status for each way a request
// can be wrong: malformed or unknown-field JSON is 400, an unknown
// experiment ID is 404, an invalid spec (including an unknown topology
// family) is 422, a wrong method is 405.
func TestDaemonErrorMapping(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed-json", "POST", "/v1/evaluate", `{"experiment":`, 400},
		{"unknown-field", "POST", "/v1/evaluate", `{"experiment":"E1","typo":1}`, 400},
		{"trailing-garbage", "POST", "/v1/evaluate", `{"experiment":"E1"} extra`, 400},
		{"neither-mode", "POST", "/v1/evaluate", `{}`, 422},
		{"both-modes", "POST", "/v1/evaluate", `{"experiment":"E1","topo":` + smallTopo + `}`, 422},
		{"experiment-with-knobs", "POST", "/v1/evaluate", `{"experiment":"E1","techs":4}`, 422},
		{"unknown-experiment", "POST", "/v1/evaluate", `{"experiment":"E99"}`, 404},
		{"negative-techs", "POST", "/v1/evaluate", `{"topo":` + smallTopo + `,"techs":-1}`, 422},
		{"unknown-family", "POST", "/v1/stats", `{"topo":{"name":"hypercube"}}`, 422},
		{"stats-no-topo", "POST", "/v1/stats", `{}`, 422},
		{"whatif-bad-frac", "POST", "/v1/whatif", `{"topo":` + smallTopo + `,"fail_fracs":[1.5]}`, 422},
		{"reload-no-topo", "POST", "/v1/reload", `{}`, 422},
		{"wrong-method", "GET", "/v1/evaluate", ``, 405},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := do(h, nil, c.method, c.path, c.body).Code; got != c.want {
				t.Fatalf("%s %s = %d, want %d", c.method, c.path, got, c.want)
			}
		})
	}
}

// TestDaemonInfeasibleRandomFabricsAre422: a random fabric whose config
// is in range but whose wiring comes out disconnected, or never
// converges, is an infeasible construction — 422, not a 500. Each spec
// below fails for some of its seeds (the n=4 net=1 jellyfish for all).
func TestDaemonInfeasibleRandomFabricsAre422(t *testing.T) {
	h := New(Config{}).Handler()
	for _, spec := range []string{
		`"name":"jellyfish","n":8,"radix":6,"net":2`,
		`"name":"jellyfish","n":4,"radix":4,"net":1`,
		`"name":"xpander","d":2,"lift":3,"radix":4`,
		`"name":"xpander","d":3,"lift":2,"radix":6`,
	} {
		infeasible := 0
		for seed := 1; seed <= 200; seed++ {
			rr := do(h, nil, "POST", "/v1/stats", fmt.Sprintf(`{"topo":{%s,"rate":100,"seed":%d}}`, spec, seed))
			switch rr.Code {
			case http.StatusOK:
			case http.StatusUnprocessableEntity:
				infeasible++
			default:
				t.Fatalf("{%s} seed %d status = %d: %s", spec, seed, rr.Code, rr.Body)
			}
		}
		if infeasible == 0 {
			t.Errorf("{%s}: no seed in 1..200 was infeasible; the spec no longer covers the error path", spec)
		}
	}
}

// TestDaemonSharedSnapshotSingleFreeze: N concurrent requests against
// one topology build it — and freeze its CSR snapshot — exactly once;
// everyone else shares the result and every response is byte-identical.
func TestDaemonSharedSnapshotSingleFreeze(t *testing.T) {
	h := New(Config{MaxInFlight: 16}).Handler()
	before := obs.TakeSnapshot()
	const n = 16
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := do(h, nil, "POST", "/v1/stats", `{"topo":`+smallTopo+`}`)
			if rr.Code == http.StatusOK {
				bodies[i] = rr.Body.String()
			} else {
				bodies[i] = fmt.Sprintf("status %d: %s", rr.Code, rr.Body)
			}
		}(i)
	}
	wg.Wait()
	after := obs.TakeSnapshot()
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d diverged:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if !strings.HasPrefix(bodies[0], `{"name":`) {
		t.Fatalf("unexpected stats response: %s", bodies[0])
	}
	if d := counterDelta(before, after, "serve.store.build"); d != 1 {
		t.Fatalf("%d topology builds for %d concurrent requests, want 1", d, n)
	}
	if d := counterDelta(before, after, "graph.freeze.builds"); d != 1 {
		t.Fatalf("%d snapshot freezes for %d concurrent requests, want 1", d, n)
	}
}

// TestDaemonCacheHitZeroKernelWork: a repeated request is answered from
// the cache byte-identically, with zero parallel loops, zero snapshot
// freezes, and zero topology builds.
func TestDaemonCacheHitZeroKernelWork(t *testing.T) {
	h := New(Config{}).Handler()
	body := `{"topo":` + smallTopo + `}`
	miss := do(h, nil, "POST", "/v1/stats", body)
	if miss.Code != http.StatusOK {
		t.Fatalf("miss status = %d: %s", miss.Code, miss.Body)
	}
	if got := miss.Header().Get("X-Physdepd-Cache"); got != "miss" {
		t.Fatalf("first request X-Physdepd-Cache = %q, want miss", got)
	}
	before := obs.TakeSnapshot()
	hit := do(h, nil, "POST", "/v1/stats", body)
	after := obs.TakeSnapshot()
	if hit.Code != http.StatusOK {
		t.Fatalf("hit status = %d", hit.Code)
	}
	if got := hit.Header().Get("X-Physdepd-Cache"); got != "hit" {
		t.Fatalf("second request X-Physdepd-Cache = %q, want hit", got)
	}
	if hit.Body.String() != miss.Body.String() {
		t.Fatalf("cache hit returned different bytes:\n%s\nvs\n%s", hit.Body, miss.Body)
	}
	if d := counterDelta(before, after, "serve.cache.hit"); d != 1 {
		t.Fatalf("cache.hit delta = %d, want 1", d)
	}
	for _, kernelWork := range []string{"par.loops", "graph.freeze.builds", "serve.store.build", "serve.cache.store"} {
		if d := counterDelta(before, after, kernelWork); d != 0 {
			t.Fatalf("cache hit did kernel work: %s delta = %d, want 0", kernelWork, d)
		}
	}
}

// TestDaemonExpiredDeadline504CacheUntouched: a request whose deadline
// has already passed is refused with 504 and leaves no trace in the
// cache — the next identical request computes fresh and succeeds.
func TestDaemonExpiredDeadline504CacheUntouched(t *testing.T) {
	h := New(Config{}).Handler()
	body := `{"topo":` + smallTopo + `}`
	before := obs.TakeSnapshot()
	rr := do(h, expiredCtx(t), "POST", "/v1/stats", body)
	after := obs.TakeSnapshot()
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired request status = %d, want 504: %s", rr.Code, rr.Body)
	}
	if d := counterDelta(before, after, "serve.cache.store"); d != 0 {
		t.Fatalf("expired request stored into the cache (delta %d)", d)
	}
	if d := counterDelta(before, after, "serve.request.deadline"); d != 1 {
		t.Fatalf("serve.request.deadline delta = %d, want 1", d)
	}
	// The failure pinned nothing: the retry is a miss that computes.
	retry := do(h, nil, "POST", "/v1/stats", body)
	if retry.Code != http.StatusOK || retry.Header().Get("X-Physdepd-Cache") != "miss" {
		t.Fatalf("retry after 504 = %d (%s), want 200 miss",
			retry.Code, retry.Header().Get("X-Physdepd-Cache"))
	}
}

// TestDaemonCanceledRequestNoFilesWritten: a client disconnect
// mid-evaluation surfaces as 499, stores nothing in the cache, and —
// the regression this test exists for — writes nothing to the
// filesystem: the daemon's embedded experiment runs have no file sink.
func TestDaemonCanceledRequestNoFilesWritten(t *testing.T) {
	t.Chdir(t.TempDir())
	h := New(Config{}).Handler()
	before := obs.TakeSnapshot()
	rr := do(h, canceledCtx(), "POST", "/v1/evaluate", `{"experiment":"E1"}`)
	after := obs.TakeSnapshot()
	if rr.Code != StatusClientClosedRequest {
		t.Fatalf("canceled request status = %d, want %d: %s", rr.Code, StatusClientClosedRequest, rr.Body)
	}
	if d := counterDelta(before, after, "serve.request.canceled"); d != 1 {
		t.Fatalf("serve.request.canceled delta = %d, want 1", d)
	}
	if d := counterDelta(before, after, "serve.cache.store"); d != 0 {
		t.Fatalf("canceled request stored into the cache (delta %d)", d)
	}
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("canceled daemon request left files behind: %v", names)
	}
}

// TestDaemonAdmissionControl: when every admission slot is held, a
// would-be computation is refused with 429 + Retry-After — but a cache
// hit still answers (it does no kernel work, so it owes no slot) — and
// freed slots admit again.
func TestDaemonAdmissionControl(t *testing.T) {
	s := New(Config{MaxInFlight: 2})
	h := s.Handler()
	warm := `{"topo":` + smallTopo + `}`
	if rr := do(h, nil, "POST", "/v1/stats", warm); rr.Code != http.StatusOK {
		t.Fatalf("warmup = %d", rr.Code)
	}
	for i := 0; i < 2; i++ {
		if !s.gate.TryEnter() {
			t.Fatal("could not saturate the gate")
		}
	}
	defer func() {
		s.gate.Leave()
		s.gate.Leave()
	}()

	hit := do(h, nil, "POST", "/v1/stats", warm)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Physdepd-Cache") != "hit" {
		t.Fatalf("cache hit under full gate = %d (%s), want 200 hit",
			hit.Code, hit.Header().Get("X-Physdepd-Cache"))
	}

	cold := `{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":99}}`
	before := obs.TakeSnapshot()
	rr := do(h, nil, "POST", "/v1/stats", cold)
	after := obs.TakeSnapshot()
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want 429: %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	if d := counterDelta(before, after, "serve.admission.rejected"); d != 1 {
		t.Fatalf("serve.admission.rejected delta = %d, want 1", d)
	}

	s.gate.Leave()
	s.gate.Leave()
	if rr := do(h, nil, "POST", "/v1/stats", cold); rr.Code != http.StatusOK {
		t.Fatalf("after slots freed = %d, want 200: %s", rr.Code, rr.Body)
	}
	// Re-enter so the deferred Leaves balance.
	s.gate.TryEnter()
	s.gate.TryEnter()
}

// TestDaemonConcurrentHammer is the -race stress: 64 concurrent
// requests mixing cache hits, distinct misses, mid-flight client
// cancels, and reload-triggered snapshot invalidation against one
// shared server. Every request must land on a deliberate status, the
// gate must drain to zero, and the store must have rebuilt at least
// once after an invalidation.
func TestDaemonConcurrentHammer(t *testing.T) {
	s := New(Config{MaxInFlight: 64})
	h := s.Handler()
	warm := `{"topo":` + smallTopo + `}`
	if rr := do(h, nil, "POST", "/v1/stats", warm); rr.Code != http.StatusOK {
		t.Fatalf("warmup = %d: %s", rr.Code, rr.Body)
	}
	before := obs.TakeSnapshot()

	const n = 64
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0: // repeat request: hit (or racing miss, both fine)
				codes[i] = do(h, nil, "POST", "/v1/stats", warm).Code
			case 1: // distinct spec: guaranteed miss, new build+freeze
				body := fmt.Sprintf(`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":%d}}`, 1000+i)
				codes[i] = do(h, nil, "POST", "/v1/stats", body).Code
			case 2: // client disconnects mid-flight
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(50 * time.Microsecond)
					cancel()
				}()
				codes[i] = do(h, ctx, "POST", "/v1/stats", warm).Code
				cancel()
			case 3: // mutation: drop the shared topology; next load refreezes
				codes[i] = do(h, nil, "POST", "/v1/reload", warm).Code
			}
		}(i)
	}
	wg.Wait()
	after := obs.TakeSnapshot()

	for i, c := range codes {
		switch c {
		case http.StatusOK, StatusClientClosedRequest:
		default:
			t.Fatalf("request %d (kind %d) status = %d", i, i%4, c)
		}
	}
	if got := s.gate.InFlight(); got != 0 {
		t.Fatalf("gate did not drain: %d in flight", got)
	}
	if d := counterDelta(before, after, "serve.cache.hit"); d < 1 {
		t.Fatalf("hammer produced no cache hits (delta %d)", d)
	}
	if d := counterDelta(before, after, "serve.cache.miss"); d < 16 {
		t.Fatalf("cache.miss delta = %d, want >= 16 (one per distinct spec)", d)
	}
	if d := counterDelta(before, after, "serve.store.invalidate"); d < 1 {
		t.Fatalf("no reload invalidated the store (delta %d)", d)
	}
	if d := counterDelta(before, after, "serve.store.build"); d < 16 {
		t.Fatalf("store.build delta = %d, want >= 16", d)
	}
}

// TestDaemonEvaluateAndWhatIfRoundTrip: the two remaining compute
// routes answer a small fabric end to end — a full deployability report
// with the core wire names, and a failure sweep whose unfailed point
// matches the baseline.
func TestDaemonEvaluateAndWhatIfRoundTrip(t *testing.T) {
	h := New(Config{}).Handler()
	ev := do(h, nil, "POST", "/v1/evaluate", `{"topo":`+smallTopo+`}`)
	if ev.Code != http.StatusOK {
		t.Fatalf("evaluate = %d: %s", ev.Code, ev.Body)
	}
	var evResp struct {
		Report map[string]any `json:"report"`
	}
	if err := json.Unmarshal(ev.Body.Bytes(), &evResp); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"name", "abstract", "total_capex_usd", "time_to_deploy_hours", "first_pass_yield"} {
		if _, ok := evResp.Report[field]; !ok {
			t.Fatalf("evaluate report lacks %q: %s", field, ev.Body)
		}
	}

	wi := do(h, nil, "POST", "/v1/whatif", `{"topo":`+smallTopo+`,"fail_fracs":[0,0.05],"trials":2}`)
	if wi.Code != http.StatusOK {
		t.Fatalf("whatif = %d: %s", wi.Code, wi.Body)
	}
	var wiResp WhatIfResponse
	if err := json.Unmarshal(wi.Body.Bytes(), &wiResp); err != nil {
		t.Fatal(err)
	}
	if len(wiResp.Points) != 2 {
		t.Fatalf("whatif returned %d points, want 2: %s", len(wiResp.Points), wi.Body)
	}
	if wiResp.Points[0].MeanAlpha != wiResp.BaselineAlpha {
		t.Fatalf("unfailed point alpha %v != baseline %v",
			wiResp.Points[0].MeanAlpha, wiResp.BaselineAlpha)
	}
	// No monotonicity assertion on the failed point: ECMP alpha can rise
	// when a removal rebalances shortest-path sets on a tiny fabric. It
	// must still be a positive, finite admission fraction.
	if p := wiResp.Points[1]; !(p.MeanAlpha > 0) || p.FailFrac != 0.05 {
		t.Fatalf("degraded point is not sane: %+v", p)
	}
}

// TestDaemonOperationalSurfaces: /healthz, /metrics, and /debug/obs
// answer without touching the admission gate or the caches.
func TestDaemonOperationalSurfaces(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for i := 0; i < s.gate.Cap(); i++ {
		s.gate.TryEnter() // saturate: operational surfaces must not care
	}
	defer func() {
		for i := 0; i < s.gate.Cap(); i++ {
			s.gate.Leave()
		}
	}()
	hz := do(h, nil, "GET", "/healthz", "")
	if hz.Code != http.StatusOK || !strings.Contains(hz.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", hz.Code, hz.Body)
	}
	m := do(h, nil, "GET", "/metrics", "")
	if m.Code != http.StatusOK || !strings.Contains(m.Body.String(), "# TYPE serve_inflight gauge") {
		t.Fatalf("metrics = %d, want serve_inflight gauge:\n%s", m.Code, m.Body)
	}
	dbg := do(h, nil, "GET", "/debug/obs", "")
	if dbg.Code != http.StatusOK || !strings.Contains(dbg.Body.String(), `"experiments"`) {
		t.Fatalf("debug/obs = %d %s", dbg.Code, dbg.Body)
	}
}
