package trafficsim

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// refFailureDegradation is FailureDegradationCtx without the zero-kill
// reuse: every trial clones, cuts and solves its own fabric.
func refFailureDegradation(t *topology.Topology, m Matrix, fracs []float64,
	trials int, useKSP bool, seed uint64) ([]DegradationPoint, error) {
	var live []int
	for _, e := range t.Edges {
		if e.U != -1 {
			live = append(live, e.ID)
		}
	}
	var out []DegradationPoint
	for _, frac := range fracs {
		kill := int(frac*float64(len(live)) + 0.5)
		pt := DegradationPoint{FailFrac: frac, MinAlpha: -1}
		for trial := 0; trial < trials; trial++ {
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
					alpha, err = KSPThroughputCtx(context.Background(), c, m, JellyfishK)
				} else {
					alpha, err = ECMPThroughput(c, m)
				}
				if err != nil {
					return nil, err
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

// isolateToR returns a copy of t with every link of its first ToR cut, so
// its ToR set is disconnected before any failure is drawn.
func isolateToR(t *topology.Topology) *topology.Topology {
	c := t.CloneTopology()
	tor := c.ToRs()[0]
	for _, e := range c.Edges {
		if e.U == tor || e.V == tor {
			c.RemoveEdge(e.ID)
		}
	}
	return c
}

// TestFailureDegradationMatchesReference pins the zero-kill reuse to the
// solve-every-trial reference: bit-identical points for ECMP and KSP, for
// fraction 0 and for a nonzero fraction that rounds to zero kills (each
// appearing twice, so a later point reuses an earlier point's solve), and
// for a fabric whose ToRs are disconnected from the start.
func TestFailureDegradationMatchesReference(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 16, K: 8, R: 4, Rate: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 0.01 of the fat-tree's 32 links and of the Jellyfish's 32 rounds to
	// zero kills; 0.1 removes three.
	fracs := []float64{0, 0.01, 0.1, 0, 0.01}
	for _, c := range []struct {
		name        string
		topo        *topology.Topology
		useKSP, cut bool
	}{
		{"fattree-ecmp", ft, false, false},
		{"fattree-ksp", ft, true, false},
		{"jellyfish-ksp", jf, true, false},
		{"jellyfish-ecmp", jf, false, false},
		{"disconnected-ecmp", isolateToR(ft), false, true},
		{"disconnected-ksp", isolateToR(jf), true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := Uniform(len(c.topo.ToRs()), 100)
			if kill := int(0.01*float64(c.topo.NumEdges()) + 0.5); kill != 0 {
				t.Fatalf("fraction 0.01 removes %d links, want 0", kill)
			}
			want, err := refFailureDegradation(c.topo, m, fracs, 3, c.useKSP, 7)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FailureDegradationCtx(context.Background(), c.topo, m, fracs, 3, c.useKSP, 7)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("point %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
			if c.cut && got[0].Disconnected != 3 {
				t.Fatalf("isolated ToR: %d of 3 zero-kill trials disconnected", got[0].Disconnected)
			}
		})
	}
}

// cancelAfter is a live context whose Err turns to context.Canceled
// after n polls, so a test can cancel at a chosen point of a sweep.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestFailureDegradationCanceledMidSweep cancels a sweep at every poll it
// makes in turn, the trial hand-outs (those before zero-kill trials that
// reuse a solve included) and KSP's own, and requires ErrCanceled with no
// points each time, until a budget large enough lets the sweep finish.
func TestFailureDegradationCanceledMidSweep(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(len(ft.ToRs()), 100)
	fracs := []float64{0, 0.01, 0.1}
	const trials = 2
	for _, useKSP := range []bool{false, true} {
		want, err := FailureDegradationCtx(context.Background(), ft, m, fracs, trials, useKSP, 7)
		if err != nil {
			t.Fatal(err)
		}
		for n := int64(0); ; n++ {
			if n > 100000 {
				t.Fatalf("ksp=%v: sweep never finished", useKSP)
			}
			live, cancel := context.WithCancel(context.Background())
			ctx := &cancelAfter{Context: live, n: n}
			pts, err := FailureDegradationCtx(ctx, ft, m, fracs, trials, useKSP, 7)
			cancel()
			if err == nil {
				if n < int64(len(fracs)*trials) {
					t.Fatalf("ksp=%v: finished after only %d polls", useKSP, n)
				}
				for i := range want {
					if pts[i] != want[i] {
						t.Fatalf("ksp=%v: point %d: got %+v, want %+v", useKSP, i, pts[i], want[i])
					}
				}
				break
			}
			if !errors.Is(err, physerr.ErrCanceled) {
				t.Fatalf("ksp=%v: canceled after %d polls: got %v, want ErrCanceled", useKSP, n, err)
			}
			if pts != nil {
				t.Fatalf("ksp=%v: canceled after %d polls: returned points %v", useKSP, n, pts)
			}
		}
	}
}
