package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"physdep/internal/cli"
	"physdep/internal/core"
	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/serve"
	"physdep/internal/trafficsim"
)

// request is one generated daemon operation. Exactly one of the typed
// requests is set; body is its wire encoding.
type request struct {
	path   string
	body   []byte
	key    int // logical cache key, for the hit/coalesced identity check
	kind   string
	eval   *serve.EvaluateRequest
	stats  *serve.StatsRequest
	whatif *serve.WhatIfRequest
}

// topo is the fabric the request names; reloads carry none here.
func (rq request) topo() *cli.TopoParams {
	switch {
	case rq.eval != nil:
		return rq.eval.Topo
	case rq.stats != nil:
		return rq.stats.Topo
	case rq.whatif != nil:
		return rq.whatif.Topo
	}
	return nil
}

// generator turns an op index into the op's request, the same request
// for the same seed and index.
type generator func(i int) request

// warmBase is the first index of the warm-up ops a miss workload sends
// during set-up; no run reaches it, so warm-up keys never collide with
// measured ones.
const warmBase = 1 << 30

// mix hashes (seed, i) into an independent 64-bit value (splitmix64).
func mix(seed, i uint64) uint64 {
	z := seed ^ (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// uniqueSeed is distinct for every op index of a run and differs between
// workload seeds.
func uniqueSeed(seed uint64, i int) uint64 { return seed<<32 | uint64(i+1) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types are plain structs
	}
	return b
}

func evaluateRequest(key int, topo cli.TopoParams, seed uint64) request {
	r := &serve.EvaluateRequest{Topo: &topo, Hall: serve.HallSpec{Rows: 6, Slots: 16}, Techs: 8, Seed: seed}
	return request{path: "/v1/evaluate", body: mustJSON(r), key: key, kind: "evaluate", eval: r}
}

func statsRequest(key int, topo cli.TopoParams) request {
	r := &serve.StatsRequest{Topo: &topo}
	return request{path: "/v1/stats", body: mustJSON(r), key: key, kind: "stats", stats: r}
}

func whatifRequest(key int, topo cli.TopoParams) request {
	r := &serve.WhatIfRequest{Topo: &topo, FailFracs: []float64{0, 0.02, 0.05, 0.10},
		Trials: 3, EgressGbps: 100, Seed: 1}
	return request{path: "/v1/whatif", body: mustJSON(r), key: key, kind: "whatif", whatif: r}
}

func reloadRequest(topo cli.TopoParams) request {
	return request{path: "/v1/reload", body: mustJSON(serve.ReloadRequest{Topo: &topo}), key: -1, kind: "reload"}
}

// evaluateMissGen: every op is a new cache key (the request seed is
// unique), over a pool of 49 fabrics, more than the 32-entry topology
// store holds, so the store both hits and rebuilds. The family cycles in
// a fixed order, so the seed changes which fabrics are drawn but not the
// mix. The families take about 13, 28, 36 and 57 ms, in this order; the
// xpander has two slots of five, so the median falls inside one family.
func evaluateMissGen(seed uint64) generator {
	families := [4]cli.TopoParams{
		{Name: "fattree", K: 8, Rate: 100},
		{Name: "jellyfish", N: 64, Radix: 16, Net: 8, Rate: 100},
		{Name: "xpander", D: 8, Lift: 8, Radix: 16, Rate: 100},
		{Name: "jellyfish", N: 96, Radix: 16, Net: 8, Rate: 100},
	}
	cycle := [5]int{0, 1, 2, 3, 2}
	return func(i int) request {
		fam := cycle[i%len(cycle)]
		topo := families[fam]
		if topo.Name != "fattree" { // the fat tree has no seed: one fabric
			pick := mix(seed, uint64(i)) % 16
			topo.Seed = 1 + mix(seed^0xfab, uint64(fam*16)+pick)%1_000_000
		}
		return evaluateRequest(i, topo, uniqueSeed(seed, i))
	}
}

// statsMissGen: every op is a new flat random fabric. Sizes straddle
// graph.DefaultExhaustiveBelow (2048), so both the exhaustive and the
// sampled all-pairs paths run; 3000 switches has two slots of five, so
// the median falls inside one size class.
func statsMissGen(seed uint64) generator {
	sizes := [5]int{1000, 3000, 1800, 3000, 5000}
	return func(i int) request {
		return statsRequest(i, cli.TopoParams{Name: "flatrandom", N: sizes[i%len(sizes)],
			Radix: 24, Net: 12, Rate: 100, Seed: uniqueSeed(seed, i)})
	}
}

// Serve-hot traffic: hotKeys keys on tiny fabrics, drawn Zipf(s=1.1).
// The key set is larger than the daemon's 256-entry result cache, so
// there are misses, stores and evictions beside the hits. In every block
// of 100 ops, ops 50 and 51 are one fresh key sent twice in a row, so
// two clients coalesce on it, and op 75 is a reload.
const (
	hotKeys    = 384
	hotMixed   = 128 // ranks below this cycle stats:evaluate:stats:whatif
	zipfLen    = 1 << 20
	pairSlot   = 50
	reloadSlot = 75
)

type hotGen struct {
	seed    uint64
	reqs    [hotKeys]request
	reloads [hotKeys]request
	zipf    []uint16
}

// hotTopo is key k's fabric: a jellyfish of 16 to 24 switches.
func hotTopo(seed uint64, k int) cli.TopoParams {
	h := mix(seed, uint64(k))
	return cli.TopoParams{Name: "jellyfish", N: 16 + int(h%9), Radix: 8, Net: 4, Rate: 100,
		Seed: 1 + h>>8%1_000_000}
}

func newHotGen(seed uint64) *hotGen {
	g := &hotGen{seed: seed, zipf: make([]uint16, zipfLen)}
	// Key kinds follow popularity rank, so the seed changes the fabrics
	// behind the ranks but not the traffic mix, about 2:1:1 across stats,
	// evaluate and what-if by traffic. The ranks that miss are in the stats-only
	// tail: their misses are cheap, and the daemon's own work per request
	// dominates the workload.
	for k := range g.reqs {
		topo := hotTopo(seed, k)
		switch {
		case k < hotMixed && k%4 == 1:
			g.reqs[k] = evaluateRequest(k, topo, 1)
		case k < hotMixed && k%4 == 3:
			g.reqs[k] = whatifRequest(k, topo)
		default:
			g.reqs[k] = statsRequest(k, topo)
		}
		g.reloads[k] = reloadRequest(topo)
	}
	// The popularity draws are the same for every seed, so every seed sends
	// the same kinds of op in the same order.
	z := rand.NewZipf(rand.New(rand.NewPCG(0x5e7e, 0x5e7e)), 1.1, 1, hotKeys-1)
	for i := range g.zipf {
		g.zipf[i] = uint16(z.Uint64())
	}
	return g
}

func (g *hotGen) gen(i int) request {
	switch i % 100 {
	case pairSlot, pairSlot + 1:
		pair := i / 100
		topo := hotTopo(g.seed^0xf7e5, pair)
		return evaluateRequest(hotKeys+pair, topo, 1)
	case reloadSlot:
		return g.reloads[g.zipf[i%zipfLen]]
	}
	return g.reqs[g.zipf[i%zipfLen]]
}

// missRec is a traced miss kept for the decomposed replay: the op index
// and the body the handler computed.
type missRec struct {
	i    int
	body []byte
}

// daemonSession drives one serve.Server through its http.Handler.
type daemonSession struct {
	h   http.Handler
	gen generator
	// unique: every op is a new key, so every response must be a miss.
	unique bool
	// refs: ops [0, refs) are checked byte for byte against a direct
	// computation after the loop.
	refs     int
	refBody  [][]byte
	replayN  int
	counters map[string]int64 // obs counters at the start of the loop

	mu      sync.Mutex
	digests map[int][32]byte // first body seen per key
	misses  []missRec        // the first replayN misses of a traced run
	record  bool
}

func newDaemonSession(gen generator, unique bool, refs, replayN int) *daemonSession {
	obs.Reset()
	return &daemonSession{h: serve.New(serve.Config{}).Handler(), gen: gen, unique: unique,
		refs: refs, refBody: make([][]byte, refs), replayN: replayN, digests: map[int][32]byte{}}
}

// post sends one request to h and returns the recorder and the handler
// time.
func post(h http.Handler, rq request, op int, tr *tracer) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	sp := tr.begin("serve.handler", op, -1)
	h.ServeHTTP(rec, req)
	tr.end(sp)
	return rec, time.Since(t0)
}

func (s *daemonSession) op(i int, tr *tracer) opResult {
	rq := s.gen(i)
	rec, d := post(s.h, rq, i, tr)
	return opResult{kind: rq.kind, d: d, err: s.check(i, rq, rec)}
}

// check is the per-op output check: status 200, a miss where every key
// is new, and for keyed ops the same bytes every time the key is served,
// whether computed, coalesced or cached.
func (s *daemonSession) check(i int, rq request, rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if rq.key < 0 {
		return nil // reload
	}
	state := rec.Header().Get("X-Physdepd-Cache")
	if s.unique && state != "miss" {
		return fmt.Errorf("distinct key answered %q, not from a computation", state)
	}
	body := rec.Body.Bytes()
	if i < s.refs {
		s.refBody[i] = bytes.Clone(body)
	}
	if s.record && state == "miss" {
		s.mu.Lock()
		if len(s.misses) < s.replayN {
			s.misses = append(s.misses, missRec{i: i, body: bytes.Clone(body)})
		}
		s.mu.Unlock()
	}
	if s.unique {
		return nil
	}
	sum := sha256.Sum256(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if first, ok := s.digests[rq.key]; !ok {
		s.digests[rq.key] = sum
	} else if first != sum {
		return fmt.Errorf("%s body for key %d differs from its first response", state, rq.key)
	}
	return nil
}

// warm sends the given ops one at a time, checking each.
func (s *daemonSession) warm(ops []request) error {
	for k, rq := range ops {
		rec, _ := post(s.h, rq, -1, nil)
		if err := s.check(warmBase+k, rq, rec); err != nil {
			return fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return nil
}

// start snapshots the program's counters, so the per-layer ratios cover
// the loop only, and on a traced run starts recording misses for replay.
func (s *daemonSession) start(trace bool) {
	s.counters = obs.TakeSnapshot().Counters
	s.record = trace
}

func (s *daemonSession) verify() []error {
	var errs []error
	ctx := context.Background()
	for i, got := range s.refBody {
		if got == nil {
			continue // the run ended before op i
		}
		want, err := direct(ctx, s.gen(i))
		if err == nil && !bytes.Equal(got, want) {
			err = errors.New("response differs from the direct computation")
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("reference op %d: %w", i, err))
		}
	}
	return errs
}

// direct computes a request's response body without the daemon: the
// library call and the JSON encoding the daemon documents.
func direct(ctx context.Context, rq request) ([]byte, error) {
	var resp any
	switch rq.kind {
	case "evaluate":
		r := rq.eval
		topo, err := cli.BuildTopology(*r.Topo)
		if err != nil {
			return nil, err
		}
		in := core.DefaultInput(topo, floorplan.DefaultHall(r.Hall.Rows, r.Hall.Slots))
		in.Techs, in.Seed = r.Techs, r.Seed
		rep, err := core.EvaluateCtx(ctx, in)
		if err != nil {
			return nil, err
		}
		resp = serve.EvaluateResponse{Report: rep}
	case "stats":
		topo, err := cli.BuildTopology(*rq.stats.Topo)
		if err != nil {
			return nil, err
		}
		st, err := topo.BasicStatsCtx(ctx)
		if err != nil {
			return nil, err
		}
		resp = serve.StatsResponse{Name: topo.Name, Stats: st}
	default:
		return nil, fmt.Errorf("no direct computation for %s", rq.kind)
	}
	return encode(resp)
}

// encode is the daemon's response encoding: JSON and a newline.
func encode(resp any) ([]byte, error) {
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// layers adds the daemon's per-layer metrics: cache, coalescing and store
// ratios from the serve counters over the loop, the obs registry's size
// and snapshot cost, allocations per cache hit, the decomposed replay of
// the first misses, and that replay's speed-up from par's workers.
func (s *daemonSession) layers(tr *tracer, m map[string]float64, attempted int) error {
	t0 := time.Now()
	snap := obs.TakeSnapshot()
	m["obs.snapshot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	m["obs.retained_spans"] = float64(len(snap.Spans))
	delta := func(name string) float64 { return float64(snap.Counters[name] - s.counters[name]) }
	hits, misses := delta("serve.cache.hit"), delta("serve.cache.miss")
	coalesced := delta("serve.cache.coalesced")
	m["serve.hit_ratio"] = ratio(hits, hits+misses)
	m["serve.coalesced_ratio"] = ratio(coalesced, misses)
	m["serve.store_build_ratio"] = ratio(delta("serve.store.build"), misses-coalesced)
	m["serve.allocs_per_hit"] = s.allocsPerHit(attempted)

	// Each recorded miss is sent once more, to a daemon that has never
	// seen it, right before its replay, so the share of the handler's time
	// the replayed library calls do not explain — the daemon's own work —
	// compares two measurements taken together.
	ctx := context.Background()
	sort.Slice(s.misses, func(a, b int) bool { return s.misses[a].i < s.misses[b].i })
	fresh := serve.New(serve.Config{}).Handler()
	var work workCounts
	var handler, replayed time.Duration
	for _, mr := range s.misses {
		rq := s.gen(mr.i)
		rec, d := post(fresh, rq, mr.i, nil)
		if !bytes.Equal(rec.Body.Bytes(), mr.body) {
			return fmt.Errorf("op %d: a fresh daemon answers differently", mr.i)
		}
		t0 := time.Now()
		if err := replayRequest(ctx, tr, mr.i, rq, mr.body, &work); err != nil {
			return fmt.Errorf("replay of op %d: %w", mr.i, err)
		}
		handler += d
		replayed += time.Since(t0)
	}
	m["serve.overhead_share"] = ratio(float64(handler-replayed), float64(handler))
	replayMetrics(tr.spans, m)
	work.metrics(m)

	var err error
	m["par.speedup"], err = parSpeedup(func() error {
		for _, mr := range s.misses {
			if err := replayRequest(ctx, nil, mr.i, s.gen(mr.i), mr.body, &workCounts{}); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// allocsPerHit re-sends the most recent ops one at a time and takes the
// median heap allocations of the calls the result cache answered.
func (s *daemonSession) allocsPerHit(attempted int) float64 {
	var hits []float64
	for i := attempted - 1; i >= 0 && i >= attempted-256 && len(hits) < 64; i-- {
		rq := s.gen(i)
		if rq.kind == "reload" {
			continue
		}
		req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
		rec := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&m1)
		if rec.Header().Get("X-Physdepd-Cache") == "hit" {
			hits = append(hits, float64(m1.Mallocs-m0.Mallocs))
		}
	}
	return median(hits)
}

// replayRequest replays one daemon request under a "replay.<kind>" root
// span and checks the outcome against body, the handler's response.
func replayRequest(ctx context.Context, tr *tracer, op int, rq request, body []byte, work *workCounts) error {
	spec := rq.topo()
	if spec == nil {
		return fmt.Errorf("cannot replay %s", rq.kind)
	}
	root := tr.begin(replayPrefix+rq.kind, op, -1)
	defer tr.end(root)
	topo, err := replayBuild(tr, op, root, *spec)
	if err != nil {
		return err
	}
	switch rq.kind {
	case "evaluate":
		r := rq.eval
		out, err := replayEvaluate(ctx, tr, op, root, topo,
			floorplan.DefaultHall(r.Hall.Rows, r.Hall.Slots), r.Techs, r.Seed)
		if err != nil {
			return err
		}
		work.add(out)
		var resp serve.EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("handler body: %w", err)
		}
		if resp.Report == nil {
			return errors.New("handler body holds no report")
		}
		return sameReport(resp.Report, out)
	case "stats":
		st, err := replayStats(ctx, tr, op, root, topo)
		if err != nil {
			return err
		}
		work.addStats(!st.PathsExact)
		return sameBody(body, serve.StatsResponse{Name: topo.Name, Stats: st})
	case "whatif":
		r := rq.whatif
		mtx := trafficsim.Uniform(len(topo.ToRs()), r.EgressGbps)
		base, pts, err := replayECMP(ctx, tr, op, root, topo, mtx, r.FailFracs, r.Trials, r.Seed)
		if err != nil {
			return err
		}
		return sameBody(body, serve.WhatIfResponse{Name: topo.Name, BaselineAlpha: base, Points: pts})
	}
	return nil
}

// sameReport checks a replay against the fields of the handler's report
// it reproduces: cable count, twin violations, makespan and the abstract
// statistics.
func sameReport(rep *core.Report, out pipelineOut) error {
	if rep.Cabling.Cables != out.cables || rep.TwinViolations != out.violations ||
		rep.TimeToDeploy != out.makespan || rep.Abstract != out.abstract {
		return fmt.Errorf("replay differs from the handler's report: cables %d/%d, violations %d/%d, makespan %v/%v, abstract %+v/%+v",
			out.cables, rep.Cabling.Cables, out.violations, rep.TwinViolations,
			out.makespan, rep.TimeToDeploy, out.abstract, rep.Abstract)
	}
	return nil
}

func sameBody(body []byte, resp any) error {
	b, err := encode(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, body) {
		return errors.New("replay differs from the handler's response")
	}
	return nil
}
