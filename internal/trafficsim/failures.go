package trafficsim

import (
	"context"
	"fmt"
	"math/rand/v2"

	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// DegradationPoint is the throughput of a fabric after losing a fraction
// of its links, averaged over failure samples.
// The json tags are the daemon's /v1/whatif wire names.
type DegradationPoint struct {
	FailFrac     float64 `json:"fail_frac"`
	MeanAlpha    float64 `json:"mean_alpha"`
	MinAlpha     float64 `json:"min_alpha"`
	Disconnected int     `json:"disconnected"` // trials where some ToR pair became unreachable
}

// FailureDegradationCtx removes ⌈frac·links⌉ uniformly random links,
// reruns the throughput model (KSP when useKSP, else ECMP), and
// aggregates over trials — §3.3's "mitigation techniques generally cannot
// tolerate large numbers of concurrent failures" made measurable. Trials
// where the ToR set disconnects score α = 0 and are counted.
//
// The context is polled before each trial is started (hand-out
// semantics, DESIGN.md §9 — a trial in flight runs to completion) and
// threads into the KSP water-fill, so a deadline interrupts a long sweep
// mid-frac. Each trial reseeds from (seed, trial) alone, so a completed
// run is byte-identical whatever context it ran under. A canceled run
// returns nil points and an error matching physerr.ErrCanceled.
func FailureDegradationCtx(ctx context.Context, t *topology.Topology, m Matrix,
	fracs []float64, trials int, useKSP bool, seed uint64) ([]DegradationPoint, error) {
	if trials < 1 {
		return nil, fmt.Errorf("trafficsim: trials must be >= 1")
	}
	cancellable := ctx.Done() != nil
	var live []int
	for _, e := range t.Edges {
		if e.U != -1 {
			live = append(live, e.ID)
		}
	}
	var out []DegradationPoint
	for _, frac := range fracs {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("trafficsim: failure fraction %v out of [0,1)", frac)
		}
		kill := int(frac*float64(len(live)) + 0.5)
		pt := DegradationPoint{FailFrac: frac, MinAlpha: -1}
		for trial := 0; trial < trials; trial++ {
			if cancellable {
				if err := ctx.Err(); err != nil {
					return nil, physerr.Canceled(err)
				}
			}
			rng := rand.New(rand.NewPCG(seed, uint64(trial)<<16|uint64(kill)))
			c := t.CloneTopology()
			perm := rng.Perm(len(live))
			for i := 0; i < kill; i++ {
				c.RemoveEdge(live[perm[i]])
			}
			alpha := 0.0
			if torsConnected(c) {
				var err error
				if useKSP {
					alpha, err = KSPThroughputCtx(ctx, c, m, JellyfishK)
				} else {
					alpha, err = ECMPThroughput(c, m)
				}
				if err != nil {
					return nil, fmt.Errorf("trafficsim: degraded trial %d at %v: %w", trial, frac, err)
				}
			} else {
				pt.Disconnected++
			}
			pt.MeanAlpha += alpha
			if pt.MinAlpha < 0 || alpha < pt.MinAlpha {
				pt.MinAlpha = alpha
			}
		}
		pt.MeanAlpha /= float64(trials)
		if pt.MinAlpha < 0 {
			pt.MinAlpha = 0
		}
		out = append(out, pt)
	}
	return out, nil
}

// torsConnected reports whether every ToR can reach every other ToR.
func torsConnected(t *topology.Topology) bool {
	tors := t.ToRs()
	if len(tors) < 2 {
		return true
	}
	dist := t.BFS(tors[0])
	for _, v := range tors[1:] {
		if dist[v] == -1 {
			return false
		}
	}
	return true
}
