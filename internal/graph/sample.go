package graph

import (
	"context"
	"math"

	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
)

// Defaults for SampleSpec's zero values.
const (
	// DefaultSampleSources is the BFS source-sample size when
	// SampleSpec.Sources is 0. 128 sources keep the estimator's mean-hops
	// 95% interval at a few percent of the mean on the expander-family
	// graphs physdep evaluates (the ES1 calibration table pins this).
	DefaultSampleSources = 128
	// DefaultExhaustiveBelow is the node-set size at or under which the
	// sampled entry points fall back to the exact exhaustive sweep when
	// SampleSpec.ExhaustiveBelow is 0. At 2048 sources the exhaustive
	// sweep is still cheap, and every experiment in the classic E1–E22
	// band sits far below it — which is what keeps their tables exact
	// (and byte-identical) with the sampled estimator threaded through
	// core.EvaluateCtx.
	DefaultExhaustiveBelow = 2048
)

// SampleSpec configures AllPairsStatsSampledCtx. The zero value means "128
// sources, seed 0, exhaustive at or below 2048 nodes".
type SampleSpec struct {
	// Sources is the number of BFS sources to sample (without
	// replacement) from the node set. 0 means DefaultSampleSources.
	Sources int
	// Seed drives source selection. Selection uses par's per-index PCG
	// streams, so a (Seed, node set) pair always samples the same
	// sources, for any worker count.
	Seed uint64
	// ExhaustiveBelow is the node-set size at or under which the exact
	// exhaustive sweep runs instead of sampling. 0 means
	// DefaultExhaustiveBelow; negative forces sampling at every size
	// (tests and calibration rows use this).
	ExhaustiveBelow int
}

func (s SampleSpec) sources() int {
	if s.Sources <= 0 {
		return DefaultSampleSources
	}
	return s.Sources
}

func (s SampleSpec) exhaustiveBelow() int {
	if s.ExhaustiveBelow == 0 {
		return DefaultExhaustiveBelow
	}
	if s.ExhaustiveBelow < 0 {
		return 0
	}
	return s.ExhaustiveBelow
}

// SampledStats is PathStats as estimated from a BFS source sample, plus
// the estimate's provenance. Field semantics under sampling (Exact ==
// false):
//
//   - MeanHops is the ratio estimator Σ row sums / Σ row reachable over
//     the sampled rows — unbiased over the uniform source sample.
//   - Diameter is the max distance observed from any sampled source: a
//     lower bound on the true diameter (an eccentricity sample), never an
//     overestimate.
//   - Reachable/Unreachable are the sampled ordered-pair counts scaled by
//     n/Sources to estimated set-wide totals (rounded).
//   - MeanHopsCI is an approximate 95% confidence half-width on MeanHops:
//     CLT over the per-source row means with finite-population
//     correction. DESIGN.md §11 derives it and the distribution-free
//     Hoeffding alternative.
//
// When Exact is true the exhaustive fallback ran and every field is the
// exact AllPairsStatsCtx value (MeanHopsCI 0).
type SampledStats struct {
	PathStats
	Sources    int  // BFS sources actually swept
	Exact      bool // exhaustive fallback ran; fields are exact
	MeanHopsCI float64
}

// AllPairsStatsSampledCtx estimates AllPairsStatsCtx over nodes (all
// nodes if nil) from a seeded uniform sample of BFS sources, making
// fleet-scale path statistics O(⌈Sources/64⌉ · 64 · (N + E)), whatever
// the diameter, instead of the exhaustive sweep's O(|nodes| · (N + E)).
// Node sets at or below spec.ExhaustiveBelow run the exact sweep instead
// — so small graphs lose nothing, and callers can thread the sampled
// entry point unconditionally. ctx is checked before each batch of ≤64
// sources and at each BFS level; a canceled sweep returns an error
// matching physerr.ErrCanceled, its only failure.
//
// Determinism: source selection is a partial Fisher–Yates shuffle drawing
// from par.Rand's per-index PCG streams, and the sweep reduces exact
// integer state per worker — the estimate depends only on (nodes, spec),
// never on the worker count. The workers-1-vs-8 suite pins this.
func (g *Graph) AllPairsStatsSampledCtx(ctx context.Context, nodes []int, spec SampleSpec) (SampledStats, error) {
	nodes = g.allNodes(nodes)
	n := len(nodes)
	s := spec.sources()
	if n <= spec.exhaustiveBelow() || s >= n {
		st, err := g.AllPairsStatsCtx(ctx, nodes)
		if err != nil {
			return SampledStats{}, err
		}
		return SampledStats{PathStats: st, Sources: n, Exact: true}, nil
	}
	defer obs.Time("graph.allpairs.sampled")()
	obs.Add("graph.allpairs.sampled.sources", int64(s))

	// Partial Fisher–Yates: draw s sources uniformly without replacement.
	// Each swap index comes from the per-index stream par.Rand(seed, i),
	// and the swaps apply serially in index order before any fan-out, so
	// the sample is a pure function of (nodes, spec.Seed).
	pool := append([]int(nil), nodes...)
	for i := 0; i < s; i++ {
		j := i + par.Rand(spec.Seed, i).IntN(n-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	sources := pool[:s]

	// Per-source row records, keyed by sample index: deterministic for
	// any worker count, and the serial reduction below keeps the error
	// bound deterministic too.
	rowSum := make([]int64, s)
	rowReach := make([]int, s)
	st, err := g.sweepSources(ctx, sources, nodes, func(i int, sum int64, reach int) {
		rowSum[i] = sum
		rowReach[i] = reach
	})
	if err != nil {
		// sweepSources already classified cancellation; re-wrap defensively
		// so the contract holds even if a future task error slips through.
		if ctx.Err() != nil {
			return SampledStats{}, physerr.Canceled(ctx.Err())
		}
		return SampledStats{}, err
	}

	out := SampledStats{PathStats: st, Sources: s}
	// Scale the sampled ordered-pair counts to estimated set-wide totals.
	scale := float64(n) / float64(s)
	out.Reachable = int(float64(st.Reachable)*scale + 0.5)
	out.Unreachable = int(float64(st.Unreachable)*scale + 0.5)
	out.MeanHopsCI = meanHopsCI(rowSum, rowReach, n)
	return out, nil
}

// meanHopsCI returns the approximate 95% confidence half-width on the
// sampled MeanHops: 1.96 · s/√k over the per-source row means, with the
// finite-population correction √((n−k)/(n−1)) for sampling without
// replacement. Rows with no reachable pair carry no mean and are skipped;
// fewer than two usable rows give 0 (no spread to estimate).
func meanHopsCI(rowSum []int64, rowReach []int, n int) float64 {
	k := 0
	mean := 0.0
	for i := range rowSum {
		if rowReach[i] == 0 {
			continue
		}
		k++
		mean += float64(rowSum[i]) / float64(rowReach[i])
	}
	if k < 2 {
		return 0
	}
	mean /= float64(k)
	varSum := 0.0
	for i := range rowSum {
		if rowReach[i] == 0 {
			continue
		}
		d := float64(rowSum[i])/float64(rowReach[i]) - mean
		varSum += d * d
	}
	sd := math.Sqrt(varSum / float64(k-1))
	fpc := math.Sqrt(float64(n-k) / float64(n-1))
	return 1.96 * sd / math.Sqrt(float64(k)) * fpc
}
