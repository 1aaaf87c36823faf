package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
		return s.results.waiting(key) == n-1
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
		return s.results.waiting(key) == 1
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

// TestCoalescedBurstsStoreEachKeyOnce: a request that misses the cache
// just as an identical leader finishes must take the stored bytes, not
// lead a second computation. 300 distinct keys, each sent by 8
// concurrent identical requests, store exactly 300 responses from 300
// builds.
func TestCoalescedBurstsStoreEachKeyOnce(t *testing.T) {
	h := New(Config{}).Handler()
	const keys, n = 300, 8
	before := obs.TakeSnapshot()
	for seed := 1; seed <= keys; seed++ {
		body := fmt.Sprintf(`{"topo":{"name":"jellyfish","n":16,"radix":8,"net":4,"rate":100,"seed":%d}}`, seed)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rr := do(h, nil, "POST", "/v1/stats", body); rr.Code != http.StatusOK {
					t.Errorf("seed %d status = %d: %s", seed, rr.Code, rr.Body)
				}
			}()
		}
		wg.Wait()
	}
	after := obs.TakeSnapshot()
	for _, counter := range []string{"serve.cache.store", "serve.store.build"} {
		if d := counterDelta(before, after, counter); d != keys {
			t.Fatalf("%s delta = %d, want %d (one per key)", counter, d, keys)
		}
	}
	if d := counterDelta(before, after, "serve.cache.hit") + counterDelta(before, after, "serve.cache.miss"); d != keys*n {
		t.Fatalf("hit+miss delta = %d, want %d (one per request)", d, keys*n)
	}
}

// testCounters are the counters the flightCache unit tests read.
var testCounters = &flightCounters{
	evHit:       "flighttest.hit",
	evMiss:      "flighttest.miss",
	evCoalesced: "flighttest.coalesced",
	evStore:     "flighttest.store",
	evEvict:     "flighttest.evict",
}

type getResult struct {
	val int
	src source
	err error
}

// blockedLeader starts a get of k on c whose compute blocks until
// release is closed and then returns val, err. It returns once the
// flight is registered, so later gets of k follow it.
func blockedLeader(c *flightCache[int], k cacheKey, val int, err error) (release chan struct{}, done <-chan getResult) {
	release = make(chan struct{})
	started := make(chan struct{})
	out := make(chan getResult, 1)
	go func() {
		v, src, err := c.get(context.Background(), k, func(context.Context) (int, error) {
			close(started)
			<-release
			return val, err
		})
		out <- getResult{v, src, err}
	}()
	<-started
	return release, out
}

// getAsync runs c.get(ctx, k) with a compute that returns val and counts
// its calls.
func getAsync(ctx context.Context, c *flightCache[int], k cacheKey, val int, calls *atomic.Int64) <-chan getResult {
	out := make(chan getResult, 1)
	go func() {
		v, src, err := c.get(ctx, k, func(context.Context) (int, error) {
			calls.Add(1)
			return val, nil
		})
		out <- getResult{v, src, err}
	}()
	return out
}

// TestFlightCacheHitAndLead: the first get leads and stores, the second
// is a hit that never computes, and each get counts one hit or miss.
func TestFlightCacheHitAndLead(t *testing.T) {
	obs.Enable()
	c := newFlightCache[int](4, testCounters)
	var calls atomic.Int64
	before := obs.TakeSnapshot()
	if r := <-getAsync(context.Background(), c, key(1), 7, &calls); r != (getResult{7, fromCompute, nil}) {
		t.Fatalf("first get = %+v, want 7 from compute", r)
	}
	if r := <-getAsync(context.Background(), c, key(1), 8, &calls); r != (getResult{7, fromStore, nil}) {
		t.Fatalf("second get = %+v, want the stored 7", r)
	}
	after := obs.TakeSnapshot()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute calls = %d, want 1", n)
	}
	for counter, want := range map[string]int64{"flighttest.hit": 1, "flighttest.miss": 1, "flighttest.store": 1} {
		if d := counterDelta(before, after, counter); d != want {
			t.Fatalf("%s delta = %d, want %d", counter, d, want)
		}
	}
}

// TestFlightCacheFollowersJoinTheLeader: gets that arrive while a flight
// runs join it and take the leader's value without computing.
func TestFlightCacheFollowersJoinTheLeader(t *testing.T) {
	obs.Enable()
	c := newFlightCache[int](4, testCounters)
	release, leader := blockedLeader(c, key(1), 7, nil)
	var calls atomic.Int64
	const n = 4
	followers := make([]<-chan getResult, n)
	for i := range followers {
		followers[i] = getAsync(context.Background(), c, key(1), 8, &calls)
	}
	waitFor(t, "followers to join", func() bool { return c.waiting(key(1)) == n })
	before := obs.TakeSnapshot()
	close(release)
	if r := <-leader; r != (getResult{7, fromCompute, nil}) {
		t.Fatalf("leader = %+v, want 7 from compute", r)
	}
	for i, f := range followers {
		if r := <-f; r != (getResult{7, fromFlight, nil}) {
			t.Fatalf("follower %d = %+v, want the leader's 7", i, r)
		}
	}
	after := obs.TakeSnapshot()
	if got := calls.Load(); got != 0 {
		t.Fatalf("followers computed %d times, want 0", got)
	}
	if d := counterDelta(before, after, "flighttest.coalesced"); d != n {
		t.Fatalf("coalesced delta = %d, want %d", d, n)
	}
}

// TestFlightCacheRetryAfterFailedLeader: a failed leader's error stays
// its own; its follower leads a fresh computation, and the retry counts
// no second miss.
func TestFlightCacheRetryAfterFailedLeader(t *testing.T) {
	obs.Enable()
	c := newFlightCache[int](4, testCounters)
	errInjected := errors.New("injected")
	release, leader := blockedLeader(c, key(1), 0, errInjected)
	var calls atomic.Int64
	follower := getAsync(context.Background(), c, key(1), 8, &calls)
	waitFor(t, "the follower to join", func() bool { return c.waiting(key(1)) == 1 })
	before := obs.TakeSnapshot()
	close(release)
	if r := <-leader; !errors.Is(r.err, errInjected) {
		t.Fatalf("leader err = %v, want the injected failure", r.err)
	}
	if r := <-follower; r != (getResult{8, fromCompute, nil}) {
		t.Fatalf("follower = %+v, want its own 8 from compute", r)
	}
	after := obs.TakeSnapshot()
	if got := calls.Load(); got != 1 {
		t.Fatalf("follower computed %d times, want 1", got)
	}
	if d := counterDelta(before, after, "flighttest.miss"); d != 0 {
		t.Fatalf("retry counted %d more misses, want 0", d)
	}
	if v, ok := c.lru.get(key(1)); !ok || v != 8 {
		t.Fatalf("stored = %d,%v, want the follower's 8", v, ok)
	}
}

// TestFlightCacheLeaderPanicReleasesFollowers: a leader that panics
// still finishes its flight, so its follower leads instead of waiting
// forever.
func TestFlightCacheLeaderPanicReleasesFollowers(t *testing.T) {
	c := newFlightCache[int](4, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.get(context.Background(), key(1), func(context.Context) (int, error) {
			close(started)
			<-release
			panic("injected")
		})
	}()
	<-started
	var calls atomic.Int64
	follower := getAsync(context.Background(), c, key(1), 8, &calls)
	waitFor(t, "the follower to join", func() bool { return c.waiting(key(1)) == 1 })
	close(release)
	if p := <-panicked; p != "injected" {
		t.Fatalf("leader recovered %v, want the injected panic", p)
	}
	if r := <-follower; r != (getResult{8, fromCompute, nil}) {
		t.Fatalf("follower = %+v, want its own 8 from compute", r)
	}
}

// TestFlightCacheFollowerOwnDeadline: a follower whose context ends
// first gets ErrCanceled; the leader completes and stores as usual.
func TestFlightCacheFollowerOwnDeadline(t *testing.T) {
	c := newFlightCache[int](4, nil)
	release, leader := blockedLeader(c, key(1), 7, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var calls atomic.Int64
	r := <-getAsync(ctx, c, key(1), 8, &calls)
	if !errors.Is(r.err, physerr.ErrCanceled) || !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("expired follower err = %v, want ErrCanceled and DeadlineExceeded", r.err)
	}
	close(release)
	if r := <-leader; r != (getResult{7, fromCompute, nil}) {
		t.Fatalf("leader = %+v after its follower expired, want 7", r)
	}
	if v, ok := c.lru.get(key(1)); !ok || v != 7 {
		t.Fatalf("stored = %d,%v, want the leader's 7", v, ok)
	}
}

// TestFlightCacheDropDuringFlight: a drop while a flight runs hands the
// flight's value to its waiters but stores nothing, so the next get
// computes fresh; dropping a stored key forgets it.
func TestFlightCacheDropDuringFlight(t *testing.T) {
	c := newFlightCache[int](4, nil)
	release, leader := blockedLeader(c, key(1), 7, nil)
	var calls atomic.Int64
	follower := getAsync(context.Background(), c, key(1), 8, &calls)
	waitFor(t, "the follower to join", func() bool { return c.waiting(key(1)) == 1 })
	if !c.drop(key(1)) {
		t.Fatal("drop during a flight reported nothing to drop")
	}
	close(release)
	if r := <-leader; r.err != nil || r.val != 7 {
		t.Fatalf("leader = %+v, want 7", r)
	}
	if r := <-follower; r != (getResult{7, fromFlight, nil}) {
		t.Fatalf("follower = %+v, want the dropped flight's 7", r)
	}
	if n := c.lru.len(); n != 0 {
		t.Fatalf("dropped flight was stored (%d entries)", n)
	}
	if r := <-getAsync(context.Background(), c, key(1), 9, &calls); r != (getResult{9, fromCompute, nil}) {
		t.Fatalf("get after drop = %+v, want a fresh 9", r)
	}
	if !c.drop(key(1)) || c.drop(key(1)) {
		t.Fatal("drop of a stored key must report true once, then false")
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
