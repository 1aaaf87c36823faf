package graph

import (
	"context"
	"math"
	"math/rand/v2"

	"physdep/internal/par"
	"physdep/internal/physerr"
)

// SpectralGap is SpectralGapCtx under context.Background(), which never
// cancels, so it cannot fail. It remains for the bench module's trace
// replay, which calls it by this name; everything else passes a context.
func (g *Graph) SpectralGap(iters int, rng *rand.Rand) float64 {
	gap, _ := g.SpectralGapCtx(context.Background(), iters, rng) // Background never cancels
	return gap
}

// SpectralGapCtx estimates 1 - λ₂ of the lazy random-walk matrix
// (I + P)/2 of g, where λ₂ is the second-largest eigenvalue magnitude.
// Large gaps mean good expansion; this is the number the Jellyfish and
// Xpander papers appeal to when they call their topologies "near-optimal
// expanders". The lazy walk keeps bipartite fabrics (fat-trees!) from
// reading as zero-gap: their −1 eigenvalue is an artifact of two-sidedness,
// not of poor expansion.
//
// The estimate uses power iteration on a vector deflated against the
// stationary distribution (the top eigenvector of the walk matrix).
// iters controls convergence; 200 is plenty for the graph sizes physdep
// evaluates. Isolated nodes are given an implicit self-loop so the walk is
// well defined.
//
// ctx is checked before each power iteration and handed to the matvec's
// fan-out, so a canceled estimate stops within one iteration and returns
// an error matching physerr.ErrCanceled, its only failure. rng is drawn
// from exactly as without a context: N normal variates, before the first
// iteration.
func (g *Graph) SpectralGapCtx(ctx context.Context, iters int, rng *rand.Rand) (float64, error) {
	if g.N < 2 {
		return 1, nil
	}
	// The matvec is the whole cost of the estimate; iterate the packed
	// CSR rows (same slot order as adj, so the float accumulation order
	// — and therefore every iterate — is unchanged).
	snap := g.Freeze()
	deg := make([]float64, g.N)
	total := 0.0
	for u := 0; u < g.N; u++ {
		d := float64(g.Degree(u))
		if d == 0 {
			d = 1 // implicit self-loop
		}
		deg[u] = d
		total += d
	}
	// Stationary distribution π(u) = deg(u) / Σdeg. The top eigenvector of
	// the random-walk matrix P (acting on the right) is the all-ones
	// vector; deflate against π under the degree inner product.
	pi := make([]float64, g.N)
	for u := range pi {
		pi[u] = deg[u] / total
	}
	x := make([]float64, g.N)
	for u := range x {
		x[u] = rng.NormFloat64()
	}
	y := make([]float64, g.N)
	lambda := 0.0
	// The matvec fans out over fixed node blocks when the graph is big
	// enough to amortize the goroutines. Each y[u] is computed from x
	// alone, so block boundaries and worker count cannot change any value.
	const blockNodes = 256
	blocks := (g.N + blockNodes - 1) / blockNodes
	matvecBlock := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			acc := 0.0
			for _, w := range snap.nbr[snap.off[u]:snap.off[u+1]] {
				acc += x[w] / deg[u]
			}
			if snap.Degree(u) == 0 {
				acc = x[u] // self-loop
			}
			y[u] = (acc + x[u]) / 2
		}
	}
	cancellable := ctx.Done() != nil
	for it := 0; it < iters; it++ {
		if cancellable {
			if err := ctx.Err(); err != nil {
				return 0, physerr.Canceled(err)
			}
		}
		deflate(x, pi)
		// y = (x + P x)/2, with P(u,v) = (#edges u–v)/deg(u).
		if blocks > 1 && par.Workers() > 1 {
			// The block fn never errors, so cancellation is the only
			// failure, already classified by par.
			err := par.ForCtx(ctx, blocks, func(b int) error {
				hi := (b + 1) * blockNodes
				if hi > g.N {
					hi = g.N
				}
				matvecBlock(b*blockNodes, hi)
				return nil
			})
			if err != nil {
				return 0, err
			}
		} else {
			matvecBlock(0, g.N)
		}
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 1, nil // x was entirely in the top eigenspace: gap is maximal
		}
		lambda = norm / vecNorm(x)
		for u := range x {
			x[u] = y[u] / norm
		}
	}
	if lambda > 1 {
		lambda = 1
	}
	return 1 - lambda, nil
}

// deflate removes the component of x along the all-ones direction under
// the π-weighted inner product, so power iteration converges to λ₂.
func deflate(x, pi []float64) {
	dot := 0.0
	for u := range x {
		dot += pi[u] * x[u]
	}
	for u := range x {
		x[u] -= dot
	}
}

func vecNorm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
