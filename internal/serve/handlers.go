package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"physdep/internal/cli"
	"physdep/internal/core"
	"physdep/internal/experiments"
	"physdep/internal/floorplan"
	"physdep/internal/interchange"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/topology"
	"physdep/internal/trafficsim"
)

// StatusClientClosedRequest is the 499-style status a request canceled
// by its client (disconnect mid-evaluation) is accounted under. The
// client is gone, so the status is for the daemon's own logs and
// metrics, not the wire.
const StatusClientClosedRequest = 499

// maxBodyBytes bounds request bodies; every request here is a small
// JSON document, so anything near the limit is garbage.
const maxBodyBytes = 1 << 20

// HallSpec selects the machine hall a custom evaluation places into —
// the daemon twin of physdep's -rows/-slots flags (the rest of the hall
// geometry is floorplan's constants). An unset (0) dimension follows
// cli.ResolveHall: an uploaded document's own hall, else the default.
type HallSpec struct {
	Rows  int `json:"rows,omitempty"`
	Slots int `json:"slots,omitempty"`
}

// EvaluateRequest asks for one deployability evaluation: either a
// registered experiment by ID (the golden-corpus tables) or a custom
// topology spec run through core.EvaluateCtx. Exactly one of
// Experiment and Topo must be set. Techs, Anneal and Restarts are capped
// by core.CheckKnobs.
type EvaluateRequest struct {
	Experiment string          `json:"experiment,omitempty"`
	Topo       *cli.TopoParams `json:"topo,omitempty"`
	Hall       HallSpec        `json:"hall,omitempty"`
	Techs      int             `json:"techs,omitempty"`      // default 8
	Anneal     int             `json:"anneal,omitempty"`     // placement annealing steps
	Restarts   int             `json:"restarts,omitempty"`   // annealing restart chains
	Seed       uint64          `json:"seed,omitempty"`       // default 1
	TimeoutMS  int64           `json:"timeout_ms,omitempty"` // per-request deadline; NOT part of the cache key
}

// EvaluateResponse is the evaluate answer. Experiment mode fills
// Rendered with exactly Result.Render() — byte-identical to the golden
// corpus, which the parity test enforces; topology mode fills Report.
type EvaluateResponse struct {
	Experiment string       `json:"experiment,omitempty"`
	Title      string       `json:"title,omitempty"`
	Paper      string       `json:"paper,omitempty"`
	Rendered   string       `json:"rendered,omitempty"`
	Report     *core.Report `json:"report,omitempty"`
}

// StatsRequest asks for the abstract path statistics of one topology,
// served off its shared frozen snapshot.
type StatsRequest struct {
	Topo      *cli.TopoParams `json:"topo"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"` // NOT part of the cache key
}

// StatsResponse carries topology.Stats plus the fabric's name.
type StatsResponse struct {
	Name  string         `json:"name"`
	Stats topology.Stats `json:"stats"`
}

// WhatIfRequest asks a failure what-if: degrade the named fabric by
// random link-failure fractions and report retained throughput. Trials
// and the number of FailFracs are capped by core.MaxWhatIfTrials and
// core.MaxWhatIfFracs.
type WhatIfRequest struct {
	Topo       *cli.TopoParams `json:"topo"`
	FailFracs  []float64       `json:"fail_fracs,omitempty"`  // default [0, 0.02, 0.05, 0.10]
	Trials     int             `json:"trials,omitempty"`      // default 3
	UseKSP     bool            `json:"use_ksp,omitempty"`     // default ECMP
	EgressGbps float64         `json:"egress_gbps,omitempty"` // per-ToR uniform egress, default 100
	Seed       uint64          `json:"seed,omitempty"`        // default 1
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`  // NOT part of the cache key
}

// WhatIfResponse carries the degradation sweep plus the undegraded
// baseline under the same traffic model.
type WhatIfResponse struct {
	Name          string                        `json:"name"`
	BaselineAlpha float64                       `json:"baseline_alpha"`
	Points        []trafficsim.DegradationPoint `json:"points"`
}

// ReloadRequest drops a topology from the shared store; the next
// request that names it rebuilds fresh state (and a fresh snapshot).
type ReloadRequest struct {
	Topo *cli.TopoParams `json:"topo"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// decodeInto reads the request body as strict JSON (unknown fields are
// a 400, so a typoed knob can't silently select a default — and so the
// cache key's "any field change hashes different" property is over a
// closed field set).
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeError(w, http.StatusBadRequest, errors.New("bad request body: trailing data after JSON document"))
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, status int, err error) {
	obs.Inc("serve.errors." + strconv.Itoa(status))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(errorResponse{Error: err.Error()})
	w.Write(append(b, '\n'))
}

// errOverloaded marks a leader refused an admission slot: a 429.
var errOverloaded = errors.New("overloaded")

// statusFor maps a compute error onto its HTTP status: admission refused
// 429, expired deadline 504, client-canceled 499, invalid input 422,
// anything else 500. DeadlineExceeded is checked before the ErrCanceled
// kind because physerr.Canceled wraps both.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, physerr.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, physerr.ErrOutOfRange),
		errors.Is(err, physerr.ErrCapacity),
		errors.Is(err, physerr.ErrInfeasibleMedia),
		errors.Is(err, physerr.ErrInfeasible):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// serveCached answers a request from the result cache, from an
// identical in-flight computation, or by computing — the one path every
// /v1 evaluation route goes through, and one caller of the flight cache
// (singleflight.go). A hit does zero kernel work, so it owes no
// admission slot and no flight. The request's stacked deadlines (server
// -timeout and client timeout_ms, earliest wins) are built once up
// front, so a follower's wait is bounded exactly like its own
// computation would have been: a follower whose deadline expires gets
// its own 504 and leaves the leader running.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key cacheKey,
	timeoutMS int64, compute func(ctx context.Context) (any, error)) {
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
		defer cancel()
	}
	body, src, err := s.results.get(ctx, key, func(ctx context.Context) ([]byte, error) {
		return s.computeBody(ctx, compute)
	})
	if err != nil {
		// Canceled, expired, refused, and failed requests never touch the
		// cache: the next identical request gets a full, fresh evaluation.
		status := statusFor(err)
		switch status {
		case http.StatusTooManyRequests:
			w.Header().Set("Retry-After", "1")
		case http.StatusGatewayTimeout:
			obs.Inc("serve.request.deadline")
		case StatusClientClosedRequest:
			obs.Inc("serve.request.canceled")
		}
		writeError(w, status, err)
		return
	}
	writeJSONBody(w, body, string(src))
}

// computeBody is the result cache's compute. Only the leader occupies an
// admission slot — N coalesced requests cost one unit of kernel work, so
// they owe one slot between them. The response is marshaled once; those
// exact bytes are stored, handed to every follower, and written to the
// leader's own wire, keeping miss, coalesced, and hit responses
// byte-identical.
func (s *Server) computeBody(ctx context.Context, compute func(ctx context.Context) (any, error)) ([]byte, error) {
	if !s.gate.TryEnter() {
		obs.Inc("serve.admission.rejected")
		return nil, fmt.Errorf("%w: %d evaluations in flight (capacity %d); retry shortly",
			errOverloaded, s.gate.InFlight(), s.gate.Cap())
	}
	defer s.gate.Leave()
	obs.MaxGauge("serve.inflight.peak", float64(s.gate.InFlight()))
	resp, err := compute(ctx)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

func writeJSONBody(w http.ResponseWriter, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Physdepd-Cache", cacheState)
	if _, err := w.Write(body); err != nil {
		// The connection broke mid-write: the client saw a truncated
		// response and /metrics is the only place that will ever show it.
		obs.Inc("serve.write.error")
	}
}

// normalizeEvaluate validates an evaluate request and fills defaults so
// that semantically equal requests share one canonical form (and thus
// one cache key). The deadline knob is zeroed: how long a caller is
// willing to wait is not part of what is being evaluated. A file spec's
// unset hall dimensions take the resident document's hall, so a document
// evaluated without a hall and the same fabric evaluated with that hall
// spelled out share one key.
func (s *Server) normalizeEvaluate(req EvaluateRequest) (EvaluateRequest, error) {
	req.TimeoutMS = 0
	if (req.Experiment == "") == (req.Topo == nil) {
		return req, physerr.OutOfRange("serve: exactly one of experiment and topo must be set")
	}
	if req.Experiment != "" {
		if req.Hall != (HallSpec{}) || req.Techs != 0 || req.Anneal != 0 || req.Restarts != 0 || req.Seed != 0 {
			return req, physerr.OutOfRange("serve: experiment mode takes no topology knobs (hall/techs/anneal/restarts/seed)")
		}
		if experiments.Get(req.Experiment) == nil {
			return req, fmt.Errorf("unknown experiment %q", req.Experiment)
		}
		return req, nil
	}
	if err := core.CheckKnobs(req.Techs, req.Anneal, req.Restarts); err != nil {
		return req, err
	}
	if req.Hall.Rows < 0 || req.Hall.Slots < 0 {
		return req, physerr.OutOfRange("serve: hall rows and slots must be >= 0")
	}
	var docHall *interchange.Hall
	if req.Topo.Name == "file" && (req.Hall.Rows == 0 || req.Hall.Slots == 0) {
		doc, err := s.resident(req.Topo.File)
		if err != nil {
			return req, err
		}
		docHall = doc.hall
	}
	req.Hall.Rows, req.Hall.Slots = cli.ResolveHall(req.Hall.Rows, req.Hall.Slots, docHall)
	if req.Techs == 0 {
		req.Techs = 8
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return req, nil
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.requests.evaluate")
	var req EvaluateRequest
	if !decodeInto(w, r, &req) {
		return
	}
	norm, err := s.normalizeEvaluate(req)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if !errors.Is(err, physerr.ErrOutOfRange) {
			status = http.StatusNotFound // unknown experiment ID
		}
		writeError(w, status, err)
		return
	}
	key, err := canonicalKey("evaluate", norm)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		if norm.Experiment != "" {
			return s.computeExperiment(ctx, norm.Experiment)
		}
		return s.computeTopologyEvaluate(ctx, norm)
	})
}

// computeExperiment runs one registered experiment in-process — no
// manifest file, no golden rewrite, no temp files; the daemon's only
// sink is the response (and the in-memory obs registry feeding
// /debug/obs). The "experiment:<ID>" span keeps /debug/obs rows
// consistent with cmd/experiments manifests.
func (s *Server) computeExperiment(ctx context.Context, id string) (any, error) {
	run := experiments.Get(id)
	sp := obs.StartSpan("experiment:" + id)
	res, err := run(ctx)
	if err != nil {
		sp.SetAttr("failed", 1)
		sp.End()
		return nil, err
	}
	sp.End()
	return EvaluateResponse{
		Experiment: res.ID,
		Title:      res.Title,
		Paper:      res.Paper,
		Rendered:   res.Render(),
	}, nil
}

func (s *Server) computeTopologyEvaluate(ctx context.Context, norm EvaluateRequest) (any, error) {
	topo, err := s.store.load(ctx, *norm.Topo)
	if err != nil {
		return nil, err
	}
	in := core.DefaultInput(topo, floorplan.DefaultHall(norm.Hall.Rows, norm.Hall.Slots))
	in.Techs = norm.Techs
	in.PlacementSteps = norm.Anneal
	in.PlacementRestarts = norm.Restarts
	in.Seed = norm.Seed
	rep, err := core.EvaluateCtx(ctx, in)
	if err != nil {
		return nil, err
	}
	return EvaluateResponse{Report: rep}, nil
}

func normalizeStats(req StatsRequest) (StatsRequest, error) {
	req.TimeoutMS = 0
	if req.Topo == nil {
		return req, physerr.OutOfRange("serve: stats needs a topo spec")
	}
	return req, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.requests.stats")
	var req StatsRequest
	if !decodeInto(w, r, &req) {
		return
	}
	norm, err := normalizeStats(req)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	key, err := canonicalKey("stats", norm)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		topo, err := s.store.load(ctx, *norm.Topo)
		if err != nil {
			return nil, err
		}
		st, err := topo.BasicStatsCtx(ctx)
		if err != nil {
			return nil, err
		}
		return StatsResponse{Name: topo.Name, Stats: st}, nil
	})
}

func normalizeWhatIf(req WhatIfRequest) (WhatIfRequest, error) {
	req.TimeoutMS = 0
	if req.Topo == nil {
		return req, physerr.OutOfRange("serve: whatif needs a topo spec")
	}
	if req.Trials < 0 || req.Trials > core.MaxWhatIfTrials {
		return req, physerr.OutOfRange("serve: trials must be in [0, %d], got %d", core.MaxWhatIfTrials, req.Trials)
	}
	if len(req.FailFracs) > core.MaxWhatIfFracs {
		return req, physerr.OutOfRange("serve: at most %d fail_fracs, got %d", core.MaxWhatIfFracs, len(req.FailFracs))
	}
	if req.EgressGbps < 0 {
		return req, physerr.OutOfRange("serve: egress_gbps must be >= 0")
	}
	for _, f := range req.FailFracs {
		if f < 0 || f >= 1 {
			return req, physerr.OutOfRange("serve: fail_fracs must be in [0,1), got %v", f)
		}
	}
	if len(req.FailFracs) == 0 {
		req.FailFracs = []float64{0, 0.02, 0.05, 0.10}
	}
	if req.Trials == 0 {
		req.Trials = 3
	}
	if req.EgressGbps == 0 {
		req.EgressGbps = 100
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return req, nil
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.requests.whatif")
	var req WhatIfRequest
	if !decodeInto(w, r, &req) {
		return
	}
	norm, err := normalizeWhatIf(req)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	key, err := canonicalKey("whatif", norm)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		topo, err := s.store.load(ctx, *norm.Topo)
		if err != nil {
			return nil, err
		}
		m := trafficsim.Uniform(len(topo.ToRs()), norm.EgressGbps)
		var baseline float64
		if norm.UseKSP {
			baseline, err = trafficsim.KSPThroughputCtx(ctx, topo, m, trafficsim.JellyfishK)
		} else {
			baseline, err = trafficsim.ECMPThroughput(topo, m)
		}
		if err != nil {
			return nil, err
		}
		pts, err := trafficsim.FailureDegradationCtx(ctx, topo, m,
			norm.FailFracs, norm.Trials, norm.UseKSP, norm.Seed)
		if err != nil {
			return nil, err
		}
		return WhatIfResponse{Name: topo.Name, BaselineAlpha: baseline, Points: pts}, nil
	})
}

// handleReload drops a topology from the shared store: the next request
// naming the spec rebuilds the fabric and freezes a fresh snapshot
// (requests still holding the old pointer finish on the old immutable
// snapshot). Results are pure functions of their request, so the result
// cache stays valid across a reload and is left untouched.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.requests.reload")
	var req ReloadRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Topo == nil {
		writeError(w, http.StatusUnprocessableEntity, physerr.OutOfRange("serve: reload needs a topo spec"))
		return
	}
	dropped, err := s.store.invalidate(*req.Topo)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"dropped\":%v}\n", dropped)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_ms\":%d,\"inflight\":%d}\n",
		time.Since(s.start).Milliseconds(), s.gate.InFlight())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.SetGauge("serve.inflight", float64(s.gate.InFlight()))
	obs.SetGauge("serve.cache.entries", float64(s.results.lru.len()))
	obs.SetGauge("serve.store.entries", float64(s.store.flights.lru.len()))
	obs.SetGauge("serve.docs.entries", float64(s.docs.len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, obs.TakeSnapshot().RenderMetrics())
}

// handleDebugObs serves the same manifest cmd/experiments writes with
// -manifest, distilled entirely in memory (experiments.BuildManifest) —
// the daemon never writes observability state to the filesystem.
func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	b, err := json.MarshalIndent(experiments.BuildManifest(obs.TakeSnapshot(), false), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
