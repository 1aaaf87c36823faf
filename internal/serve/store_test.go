package serve

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"physdep/internal/cli"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

func specFor(t *testing.T, topoJSON string) cli.TopoParams {
	t.Helper()
	var p cli.TopoParams
	if err := json.Unmarshal([]byte(topoJSON), &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStoreFailedBuildIsNeverStored: a failed build leaves nothing
// behind — no LRU entry, no flight — so the next load builds afresh and
// its healthy result is the one every later load shares.
func TestStoreFailedBuildIsNeverStored(t *testing.T) {
	st := newTopoStore(4)
	var calls atomic.Int64
	st.build = func(spec cli.TopoParams) (*topology.Topology, error) {
		if calls.Add(1) == 1 {
			return nil, physerr.OutOfRange("injected: transient first-build failure")
		}
		return cli.BuildTopology(spec)
	}
	spec := specFor(t, smallTopo)
	ctx := context.Background()
	k, err := specKey(spec)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := st.load(ctx, spec); err == nil {
		t.Fatal("first load did not surface the injected failure")
	}
	if n := st.flights.lru.len(); n != 0 {
		t.Fatalf("store holds %d entries after a failed build, want 0", n)
	}
	if _, building := st.flights.inflight[k]; building {
		t.Fatal("failed build left its flight in the table")
	}
	healthy, err := st.load(ctx, spec)
	if err != nil {
		t.Fatalf("rebuild after transient failure: %v", err)
	}
	got, err := st.load(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != healthy {
		t.Fatal("healthy entry was lost: load rebuilt instead of returning the stored topology")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("build calls = %d, want 2 (the failure and one healthy build)", n)
	}
}

// TestStoreFailOnceThenSucceedsConcurrent hammers the failure path
// under -race: with a builder that fails exactly once, every concurrent
// loader converges on one shared healthy topology and the store settles
// with exactly two builds — the failure and the one fresh success.
func TestStoreFailOnceThenSucceedsConcurrent(t *testing.T) {
	st := newTopoStore(4)
	var calls atomic.Int64
	st.build = func(spec cli.TopoParams) (*topology.Topology, error) {
		if calls.Add(1) == 1 {
			return nil, physerr.OutOfRange("injected: transient first-build failure")
		}
		return cli.BuildTopology(spec)
	}
	spec := specFor(t, smallTopo)

	const n = 16
	got := make([]*topology.Topology, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				topo, err := st.load(context.Background(), spec)
				if err == nil {
					got[i] = topo
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("loader %d got a different topology than loader 0", i)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("build calls = %d, want exactly 2 (1 failure + 1 shared success)", n)
	}
	if topo, err := st.load(context.Background(), spec); err != nil || topo != got[0] {
		t.Fatalf("post-convergence load rebuilt or failed (err %v)", err)
	}
}

// blockingBuilder makes st's builds of spec block until release is
// closed, closing started when the first such build begins. Other specs,
// and builds of spec after the first, go straight through.
func blockingBuilder(st *topoStore, spec cli.TopoParams) (started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	st.build = func(p cli.TopoParams) (*topology.Topology, error) {
		if p == spec {
			select {
			case <-started: // already signaled: a later build
			default:
				close(started)
				<-release
			}
		}
		return cli.BuildTopology(p)
	}
	return started, release
}

type loadResult struct {
	topo *topology.Topology
	err  error
}

// loadAsync runs st.load(spec) on its own goroutine.
func loadAsync(st *topoStore, spec cli.TopoParams) <-chan loadResult {
	done := make(chan loadResult, 1)
	go func() {
		topo, err := st.load(context.Background(), spec)
		done <- loadResult{topo, err}
	}()
	return done
}

// TestStoreEvictMidBuildCompletesAndRebuilds: a build in progress is
// not in the LRU, so filling the LRU meanwhile cannot evict it. The
// build completes, is stored (evicting the older entry in its place),
// and serves the next load of its spec without a rebuild. The
// store-build and snapshot-freeze counters pin the exact work: three
// builds, three freezes (A, B, B again after A evicted it).
func TestStoreEvictMidBuildCompletesAndRebuilds(t *testing.T) {
	obs.Enable()
	specA := specFor(t, smallTopo)
	specB := specA
	specB.Seed = 99
	ctx := context.Background()

	st := newTopoStore(1) // capacity 1
	started, release := blockingBuilder(st, specA)

	before := obs.TakeSnapshot()
	holder := loadAsync(st, specA)
	<-started // A's build is in flight

	if _, err := st.load(ctx, specB); err != nil {
		t.Fatalf("load B: %v", err)
	}
	kA, err := specKey(specA)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.flights.lru.get(kA); ok || st.flights.lru.len() != 1 {
		t.Fatalf("store holds %d entries (A stored: %v), want only B while A builds", st.flights.lru.len(), ok)
	}

	close(release)
	res := <-holder
	if res.err != nil {
		t.Fatalf("mid-build holder's build failed: %v", res.err)
	}
	if len(res.topo.ToRs()) == 0 {
		t.Fatal("mid-build holder got an unusable topology")
	}
	if got, err := st.load(ctx, specA); err != nil || got != res.topo {
		t.Fatalf("load after A's build rebuilt or failed (err %v)", err)
	}
	if _, err := st.load(ctx, specB); err != nil { // A's store evicted B
		t.Fatalf("reload B: %v", err)
	}
	after := obs.TakeSnapshot()
	if d := counterDelta(before, after, "serve.store.build"); d != 3 {
		t.Fatalf("serve.store.build delta = %d, want 3 (A, B, B rebuilt)", d)
	}
	if d := counterDelta(before, after, "graph.freeze.builds"); d != 3 {
		t.Fatalf("graph.freeze.builds delta = %d, want 3 (each build freezes once)", d)
	}
}

// TestStoreInvalidateMidBuildForcesRebuild: a reload that lands while a
// build is running still forces a rebuild. The running build is handed
// to the request waiting on it but never stored, so the next load builds
// a fresh topology.
func TestStoreInvalidateMidBuildForcesRebuild(t *testing.T) {
	spec := specFor(t, smallTopo)
	st := newTopoStore(4)
	started, release := blockingBuilder(st, spec)

	holder := loadAsync(st, spec)
	<-started
	if dropped, err := st.invalidate(spec); err != nil || !dropped {
		t.Fatalf("invalidate mid-build = %v, %v; want true, nil", dropped, err)
	}
	close(release)
	res := <-holder
	if res.err != nil {
		t.Fatalf("holder's build failed: %v", res.err)
	}
	if n := st.flights.lru.len(); n != 0 {
		t.Fatalf("store kept the invalidated build (%d entries)", n)
	}
	rebuilt, err := st.load(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == res.topo {
		t.Fatal("load after a mid-build reload served the stale build")
	}
}

// TestStoreFollowerHonoursItsDeadline: a request waiting on another
// request's build gives up when its own context is done, and the build
// carries on for its leader.
func TestStoreFollowerHonoursItsDeadline(t *testing.T) {
	spec := specFor(t, smallTopo)
	st := newTopoStore(4)
	started, release := blockingBuilder(st, spec)

	holder := loadAsync(st, spec)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := st.load(ctx, spec); !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("follower past its deadline got %v, want ErrCanceled", err)
	}
	close(release)
	if res := <-holder; res.err != nil {
		t.Fatalf("leader's build failed after its follower gave up: %v", res.err)
	}
}
