// Package solver is physdep's in-repo optimization toolkit. The paper
// (§5.4) notes that many network-design decisions are "complex enough to
// require ILP or similar solvers"; with no external solver available, this
// package supplies the pieces the rest of the repo runs: simulated
// annealing for placement and work ordering, a zero-temperature hill
// climb for the expansion planner's splice choice, and an exact
// branch-and-bound for small 0/1 problems, the oracle the planner's
// splice-chooser test checks the hill climb against.
package solver

import (
	"context"
	"math"
	"math/rand/v2"

	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
)

// Annealable is a mutable optimization state that can propose local moves.
// Propose returns the cost delta of a candidate move and a closure that
// applies it; the framework decides acceptance. ok=false means no move was
// available this step.
type Annealable interface {
	Propose(rng *rand.Rand) (delta float64, apply func(), ok bool)
}

// AnnealConfig tunes the schedule.
type AnnealConfig struct {
	Steps int     // proposals to evaluate
	T0    float64 // initial temperature (in cost units)
	T1    float64 // final temperature (> 0)
	Seed  uint64
}

// AnnealResult reports what the search did.
type AnnealResult struct {
	Accepted  int
	Rejected  int
	DeltaSum  float64 // net cost change applied (negative = improvement)
	FinalTemp float64
}

// MaxAnnealSteps caps AnnealConfig.Steps wherever a caller takes a step
// count from its input: the evaluator's placement search
// (core.MaxPlacementSteps) and the growth planner's ordering search
// (lifecycle.PlannerConfig.AnnealSteps) both check against it.
const MaxAnnealSteps = 1 << 20

// annealChunkSteps is how many annealing steps run between context
// checks in AnnealCtx: coarse enough that the check cost vanishes into
// the proposal cost, fine enough that a deadline stops a chain within
// milliseconds on the placement problems in this repo.
const annealChunkSteps = 1024

// AnnealCtx runs Metropolis simulated annealing with geometric cooling.
// The state must start at a valid configuration; on return it holds the
// final (not necessarily best-seen) configuration, which for monotone
// final temperatures near zero is effectively the best found.
//
// ctx is checked between cooling chunks of annealChunkSteps proposals. A
// check never touches the rng or the state, so a schedule that runs to
// completion is byte-identical whatever context it ran under; a canceled
// one returns the proposals-so-far tally alongside an error matching
// physerr.ErrCanceled, its only failure, with the state left at the last
// applied move (still a valid configuration — annealing states are valid
// after every move, which is what makes stopping mid-schedule safe).
func AnnealCtx(ctx context.Context, a Annealable, cfg AnnealConfig) (AnnealResult, error) {
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa11ea1))
	var res AnnealResult
	if cfg.Steps <= 0 {
		return res, nil
	}
	t := cfg.T0
	cool := 1.0
	if cfg.Steps > 1 && cfg.T0 > 0 && cfg.T1 > 0 {
		cool = math.Pow(cfg.T1/cfg.T0, 1/float64(cfg.Steps-1))
	}
	cancellable := ctx.Done() != nil
	var err error
	steps := 0
	for ; steps < cfg.Steps; steps++ {
		if cancellable && steps%annealChunkSteps == 0 {
			if cerr := ctx.Err(); cerr != nil {
				err = physerr.Canceled(cerr)
				break
			}
		}
		delta, apply, ok := a.Propose(rng)
		if ok {
			if delta <= 0 || rng.Float64() < math.Exp(-delta/t) {
				apply()
				res.Accepted++
				res.DeltaSum += delta
			} else {
				res.Rejected++
			}
		}
		t *= cool
	}
	res.FinalTemp = t
	obs.Add("solver.anneal.steps", int64(steps))
	obs.Add("solver.anneal.accepted", int64(res.Accepted))
	obs.Add("solver.anneal.rejected", int64(res.Rejected))
	return res, err
}

// ChainSeed is the seed annealing chain c runs under for base seed s:
// chain 0 keeps the base seed, so a one-chain restart run reproduces
// plain AnnealCtx exactly; higher chains get independent derived streams.
func ChainSeed(s uint64, c int) uint64 {
	if c == 0 {
		return s
	}
	return par.SeedAt(s, c)
}

// AnnealRestartsCtx runs one annealing chain per state in parallel —
// each chain owns its state, chain c seeded by ChainSeed(cfg.Seed, c) —
// and returns the index of the winning chain: lowest objective, ties
// broken by lowest chain index. Chains are independent and their seeds
// are fixed up front, so the winner is identical for any worker count.
// objective is called after all chains finish, once per chain, in chain
// order. ctx gates chain hand-out (par contract) and the cooling chunks
// inside each running chain; on cancellation the chain states are
// abandoned mid-schedule, objective is never called, and best is -1
// alongside an error matching physerr.ErrCanceled.
func AnnealRestartsCtx(ctx context.Context, states []Annealable, cfg AnnealConfig, objective func(chain int) float64) (best int, chains []AnnealResult, err error) {
	chains = make([]AnnealResult, len(states))
	if len(states) == 0 {
		return 0, chains, nil
	}
	defer obs.Time("solver.restarts")()
	err = par.ForCtx(ctx, len(states), func(c int) error {
		ccfg := cfg
		ccfg.Seed = ChainSeed(cfg.Seed, c)
		var cerr error
		chains[c], cerr = AnnealCtx(ctx, states[c], ccfg)
		return cerr
	})
	if err != nil {
		return -1, chains, err
	}
	// Each chain's AnnealCtx has already added its moves to
	// solver.anneal.accepted/rejected; a name per chain index would grow
	// the registry with the largest restart count ever asked for.
	obs.Add("solver.restarts.chains", int64(len(states)))
	best = 0
	bestObj := objective(0)
	for c := 1; c < len(states); c++ {
		if obj := objective(c); obj < bestObj {
			best, bestObj = c, obj
		}
	}
	return best, chains, nil
}

// HillClimb is AnnealCtx at zero temperature: non-worsening moves are
// applied, worsening ones never are. Used as the ablation baseline
// against full annealing.
//
// delta == 0 moves are accepted, matching AnnealCtx's acceptance rule
// (delta <= 0 applies unconditionally at any temperature): zero-delta
// plateau steps are how a climber escapes ties, and rejecting them here
// while AnnealCtx accepted them made "AnnealCtx at zero temperature" a lie at
// exactly one point of the delta axis. TestZeroDeltaMoveParity pins the
// shared semantics.
func HillClimb(a Annealable, steps int, seed uint64) AnnealResult {
	rng := rand.New(rand.NewPCG(seed, seed^0xc1a55))
	var res AnnealResult
	for i := 0; i < steps; i++ {
		delta, apply, ok := a.Propose(rng)
		if !ok {
			continue
		}
		if delta <= 0 {
			apply()
			res.Accepted++
			res.DeltaSum += delta
		} else {
			res.Rejected++
		}
	}
	return res
}
