package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"physdep/internal/cli"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// statsKeyFor computes the cache key the daemon would use for a
// /v1/stats request with the given topo JSON — the handle tests need to
// poll the flight table.
func statsKeyFor(t *testing.T, topoJSON string) cacheKey {
	t.Helper()
	var p cli.TopoParams
	if err := json.Unmarshal([]byte(topoJSON), &p); err != nil {
		t.Fatal(err)
	}
	norm, err := normalizeStats(StatsRequest{Topo: &p})
	if err != nil {
		t.Fatal(err)
	}
	k, err := canonicalKey("stats", norm)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// waitFor polls cond until it holds or the test deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDaemonCoalescedMisses is the tentpole's acceptance test: N
// concurrent identical misses produce exactly one kernel computation —
// one topology build, one snapshot freeze, one cache store — with the
// other N-1 requests coalescing onto the leader's flight and re-serving
// the exact same bytes (serve.cache.coalesced == N-1).
func TestDaemonCoalescedMisses(t *testing.T) {
	s := New(Config{MaxInFlight: 16})
	h := s.Handler()
	release := make(chan struct{})
	inner := s.store.build
	s.store.build = func(spec cli.TopoParams) (*topology.Topology, error) {
		<-release // hold the leader mid-build until all followers are parked
		return inner(spec)
	}
	body := `{"topo":` + smallTopo + `}`
	key := statsKeyFor(t, smallTopo)

	before := obs.TakeSnapshot()
	const n = 8
	bodies := make([]string, n)
	states := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := do(h, nil, "POST", "/v1/stats", body)
			if rr.Code != http.StatusOK {
				t.Errorf("request %d status = %d: %s", i, rr.Code, rr.Body)
			}
			bodies[i] = rr.Body.String()
			states[i] = rr.Header().Get("X-Physdepd-Cache")
		}(i)
	}
	waitFor(t, "all followers to park behind the leader", func() bool {
		return s.flights.waiting(key) == n-1
	})
	close(release)
	wg.Wait()
	after := obs.TakeSnapshot()

	var misses, coalesced int
	for i := 0; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d diverged:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		switch states[i] {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("request %d X-Physdepd-Cache = %q", i, states[i])
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("got %d misses and %d coalesced, want 1 and %d", misses, coalesced, n-1)
	}
	for counter, want := range map[string]int64{
		"serve.store.build":     1,
		"graph.freeze.builds":   1,
		"serve.cache.store":     1,
		"serve.cache.coalesced": n - 1,
		// One logical request, one miss: the leader and each follower
		// count exactly once, however the flight resolves.
		"serve.cache.miss": n,
		"serve.cache.hit":  0,
	} {
		if d := counterDelta(before, after, counter); d != want {
			t.Fatalf("%s delta = %d, want %d", counter, d, want)
		}
	}
	// The working set converged: a replay is a plain cache hit with the
	// same bytes everyone already got.
	rr := do(h, nil, "POST", "/v1/stats", body)
	if rr.Header().Get("X-Physdepd-Cache") != "hit" || rr.Body.String() != bodies[0] {
		t.Fatalf("replay = %q (%d bytes), want byte-identical hit",
			rr.Header().Get("X-Physdepd-Cache"), rr.Body.Len())
	}
}

// TestFollowerDeadlineLeavesLeaderRunning: a follower whose deadline
// expires while coalesced gets its own 504 without disturbing the
// leader, which completes and populates the cache normally.
func TestFollowerDeadlineLeavesLeaderRunning(t *testing.T) {
	s := New(Config{MaxInFlight: 16})
	h := s.Handler()
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	inner := s.store.build
	s.store.build = func(spec cli.TopoParams) (*topology.Topology, error) {
		once.Do(func() { close(started) })
		<-release
		return inner(spec)
	}
	body := `{"topo":` + smallTopo + `}`

	leaderDone := make(chan *int, 1)
	go func() {
		rr := do(h, nil, "POST", "/v1/stats", body)
		code := rr.Code
		leaderDone <- &code
	}()
	<-started // leader is mid-build, flight registered

	before := obs.TakeSnapshot()
	follower := do(h, expiredCtx(t), "POST", "/v1/stats", body)
	after := obs.TakeSnapshot()
	if follower.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired follower status = %d, want 504: %s", follower.Code, follower.Body)
	}
	if d := counterDelta(before, after, "serve.request.deadline"); d != 1 {
		t.Fatalf("serve.request.deadline delta = %d, want 1", d)
	}
	if d := counterDelta(before, after, "serve.cache.coalesced"); d != 0 {
		t.Fatalf("an expired follower counted as coalesced (delta %d)", d)
	}
	if d := counterDelta(before, after, "serve.cache.miss"); d != 1 {
		t.Fatalf("serve.cache.miss delta = %d, want 1 (one logical follower request)", d)
	}

	close(release)
	if code := <-leaderDone; *code != http.StatusOK {
		t.Fatalf("leader status = %d after its follower expired, want 200", *code)
	}
	if rr := do(h, nil, "POST", "/v1/stats", body); rr.Header().Get("X-Physdepd-Cache") != "hit" {
		t.Fatalf("leader's success did not populate the cache (replay = %q)",
			rr.Header().Get("X-Physdepd-Cache"))
	}
}

// TestFailedLeaderReleasesFollowers: a leader that errors releases its
// followers to retry fresh — the follower becomes the new leader,
// computes under its own context, and succeeds; the leader's error is
// never pinned onto followers or into the cache.
func TestFailedLeaderReleasesFollowers(t *testing.T) {
	s := New(Config{MaxInFlight: 16})
	h := s.Handler()
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var calls atomic.Int64
	inner := s.store.build
	s.store.build = func(spec cli.TopoParams) (*topology.Topology, error) {
		if calls.Add(1) == 1 {
			once.Do(func() { close(started) })
			<-release
			return nil, physerr.OutOfRange("injected: first build fails")
		}
		return inner(spec)
	}
	body := `{"topo":` + smallTopo + `}`
	key := statsKeyFor(t, smallTopo)

	leaderDone := make(chan int, 1)
	go func() { leaderDone <- do(h, nil, "POST", "/v1/stats", body).Code }()
	<-started

	followerDone := make(chan *followerResult, 1)
	go func() {
		rr := do(h, nil, "POST", "/v1/stats", body)
		followerDone <- &followerResult{code: rr.Code, state: rr.Header().Get("X-Physdepd-Cache")}
	}()
	waitFor(t, "the follower to park behind the doomed leader", func() bool {
		return s.flights.waiting(key) == 1
	})
	before := obs.TakeSnapshot()
	close(release)

	if code := <-leaderDone; code != http.StatusUnprocessableEntity {
		t.Fatalf("failed leader status = %d, want 422", code)
	}
	f := <-followerDone
	if f.code != http.StatusOK || f.state != "miss" {
		t.Fatalf("released follower = %d (%q), want 200 miss — the leader's error was pinned",
			f.code, f.state)
	}
	after := obs.TakeSnapshot()
	if d := counterDelta(before, after, "serve.cache.coalesced"); d != 0 {
		t.Fatalf("a retried follower counted as coalesced (delta %d)", d)
	}
	// The follower's one miss was counted when it first arrived (before
	// the `before` snapshot); its post-release retry — re-checking the
	// cache and leading a fresh flight — must not count again. This delta
	// used to be 1: the retry loop re-ran the counted cache lookup.
	if d := counterDelta(before, after, "serve.cache.miss"); d != 0 {
		t.Fatalf("serve.cache.miss delta = %d, want 0 (retry re-counted the same logical request)", d)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("build calls = %d, want 2 (one failure, one fresh success)", got)
	}
	if rr := do(h, nil, "POST", "/v1/stats", body); rr.Header().Get("X-Physdepd-Cache") != "hit" {
		t.Fatalf("follower's success did not populate the cache (replay = %q)",
			rr.Header().Get("X-Physdepd-Cache"))
	}
}

// TestTopologyFollowerDeadline504: a request for a different endpoint on
// the same fabric does not coalesce on the result flight, but it does
// wait on the topology build another request is running. That wait
// honours its own timeout_ms: it gets 504 while the build is still
// blocked, and the leader then completes normally.
func TestTopologyFollowerDeadline504(t *testing.T) {
	s := New(Config{MaxInFlight: 16})
	h := s.Handler()
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	inner := s.store.build
	s.store.build = func(spec cli.TopoParams) (*topology.Topology, error) {
		once.Do(func() { close(started) })
		<-release
		return inner(spec)
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	leaderDone := make(chan int, 1)
	go func() { leaderDone <- do(h, nil, "POST", "/v1/stats", `{"topo":`+smallTopo+`}`).Code }()
	<-started

	followerDone := make(chan int, 1)
	go func() {
		followerDone <- do(h, nil, "POST", "/v1/whatif", `{"topo":`+smallTopo+`,"timeout_ms":50}`).Code
	}()
	select {
	case code := <-followerDone:
		if code != http.StatusGatewayTimeout {
			t.Fatalf("follower status = %d, want 504", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower ignored its 50ms deadline while parked behind a topology build")
	}
	select {
	case code := <-leaderDone:
		t.Fatalf("leader finished (%d) before its build was released", code)
	default:
	}
	close(release)
	if code := <-leaderDone; code != http.StatusOK {
		t.Fatalf("leader status = %d, want 200", code)
	}
}

type followerResult struct {
	code  int
	state string
}

// TestWriteJSONBodyCountsClientWriteFailures: a response truncated by a
// broken connection is invisible on the wire — serve.write.error in
// /metrics is where it must show up.
func TestWriteJSONBodyCountsClientWriteFailures(t *testing.T) {
	obs.Enable()
	before := obs.TakeSnapshot()
	writeJSONBody(&brokenWriter{header: http.Header{}}, []byte("{\"x\":1}\n"), "hit")
	after := obs.TakeSnapshot()
	if d := counterDelta(before, after, "serve.write.error"); d != 1 {
		t.Fatalf("serve.write.error delta = %d, want 1", d)
	}
}

type brokenWriter struct{ header http.Header }

func (b *brokenWriter) Header() http.Header       { return b.header }
func (b *brokenWriter) WriteHeader(int)           {}
func (b *brokenWriter) Write([]byte) (int, error) { return 0, errBrokenPipe }

var errBrokenPipe = errors.New("injected: broken pipe")
