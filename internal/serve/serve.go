// Package serve is physdep's long-running evaluation daemon: the
// HTTP+JSON surface (cmd/physdepd) that turns the one-shot CLI batch
// pipeline into a service answering concurrent what-if questions
// against shared fabric state — the operational shape RNG's fleet
// operators actually work in, and the reason a result cache pays off
// (Jellyfish-style incremental expansion re-evaluates one topology
// many times with small deltas).
//
// The daemon is a thin composition of substrate the library already
// guarantees:
//
//   - Per-request deadlines ride the ctx twins (DESIGN.md §9): a client
//     disconnect or an expired deadline stops kernels at the next task
//     hand-out and surfaces as physerr.ErrCanceled, which the handlers
//     map to 499/504. Completed requests are byte-identical to batch
//     runs — the parity test diffs daemon responses against the golden
//     corpus.
//   - One frozen graph.Snapshot per loaded topology (DESIGN.md §10) is
//     shared by every concurrent request through the bounded topology
//     store; nothing a handler does mutates a stored topology, so
//     sharing is a read-only fan-out.
//   - Results are cached in a bounded LRU keyed by a canonical SHA-256
//     of the normalized request (cache.go): a hit re-serves the exact
//     response bytes with zero kernel work. The result cache and the
//     topology store are both one flight cache (singleflight.go), so
//     identical concurrent misses compute once.
//   - Admission control is a par.Gate: at most MaxInFlight uncached
//     evaluations run at once, each fanning out under the shared
//     par.Workers() budget; a burst past that is refused with 429 +
//     Retry-After instead of oversubscribing the pools. Cache hits and
//     the health/metrics surfaces bypass the gate — they do no kernel
//     work.
//
// See DESIGN.md §12 for the full contract.
package serve

import (
	"net/http"
	"time"

	"physdep/internal/obs"
	"physdep/internal/par"
)

// Config tunes the daemon. The zero value means "all defaults".
type Config struct {
	// MaxInFlight bounds concurrently admitted uncached evaluations
	// (default 2×par.Workers(): enough to keep the pools fed while one
	// request waits on hand-out, few enough that admitted work cannot
	// oversubscribe them by more than one loop per worker).
	MaxInFlight int
	// CacheEntries bounds the LRU result cache (default 256 responses).
	CacheEntries int
	// DocEntries bounds the resident interchange-document cache (default
	// 32 uploaded documents, addressed by content digest; see
	// documents.go). An evicted document 422s until re-uploaded.
	DocEntries int
	// RequestTimeout caps every request's deadline server-side (default
	// 0: only client-supplied timeout_ms applies). Whichever deadline is
	// earlier wins.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * par.Workers()
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DocEntries <= 0 {
		c.DocEntries = 32
	}
	return c
}

// Server is the daemon state shared across requests: the result cache
// with its coalescing flights, the topology store, and the admission
// gate. Create with New; serve its Handler with net/http.
type Server struct {
	cfg     Config
	gate    *par.Gate
	results *flightCache[[]byte] // response bytes by canonical request key
	store   *topoStore
	docs    *lruCache[document] // uploaded interchange documents by content digest
	mux     *http.ServeMux
	start   time.Time
}

// resultCounters are the result cache's obs counters.
var resultCounters = &flightCounters{
	evHit:       "serve.cache.hit",
	evMiss:      "serve.cache.miss",
	evCoalesced: "serve.cache.coalesced",
	evStore:     "serve.cache.store",
	evEvict:     "serve.cache.evict",
}

// New builds a Server. Observability collection is enabled as a side
// effect: /metrics and /debug/obs are part of the daemon's contract,
// and the side-channel guarantee (DESIGN.md §7) keeps responses
// byte-identical with collection on.
func New(cfg Config) *Server {
	obs.Enable()
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		gate:    par.NewGate(cfg.MaxInFlight),
		results: newFlightCache[[]byte](cfg.CacheEntries, resultCounters),
		store:   newTopoStore(storeEntries),
		docs:    newLRU[document](cfg.DocEntries),
		start:   time.Now(),
	}
	// The store's builder must see the document cache so "file" specs can
	// resolve digests; everything else falls through to cli.BuildTopology.
	s.store.build = s.buildTopo
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/whatif", s.handleWhatIf)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("POST /v1/documents", s.handleDocument)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/obs", s.handleDebugObs)
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP handler (also what the httptest
// suites drive).
func (s *Server) Handler() http.Handler { return s.mux }
