package solver

import (
	"context"
	"math/rand/v2"
	"testing"
)

// sumState is a toy Annealable: n integers in [0, 9], cost = sum. Optimum
// is all zeros with cost 0.
type sumState struct {
	vals []int
	cost float64
}

func (s *sumState) Propose(rng *rand.Rand) (float64, func(), bool) {
	i := rng.IntN(len(s.vals))
	nv := rng.IntN(10)
	delta := float64(nv - s.vals[i])
	return delta, func() {
		s.vals[i] = nv
		s.cost += delta
	}, true
}

func newSumState(n int, rng *rand.Rand) *sumState {
	s := &sumState{vals: make([]int, n)}
	for i := range s.vals {
		s.vals[i] = rng.IntN(10)
		s.cost += float64(s.vals[i])
	}
	return s
}

func TestAnnealImproves(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := newSumState(50, rng)
	start := s.cost
	res := must(AnnealCtx(context.Background(), s, AnnealConfig{Steps: 20000, T0: 5, T1: 0.01, Seed: 42}))
	if s.cost >= start {
		t.Errorf("anneal did not improve: %v -> %v", start, s.cost)
	}
	if s.cost > 5 {
		t.Errorf("anneal final cost %v, want near 0", s.cost)
	}
	if res.Accepted == 0 {
		t.Error("no moves accepted")
	}
}

func TestAnnealZeroSteps(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	s := newSumState(5, rng)
	res := must(AnnealCtx(context.Background(), s, AnnealConfig{Steps: 0}))
	if res.Accepted != 0 || res.Rejected != 0 {
		t.Errorf("zero-step anneal did work: %+v", res)
	}
}

func TestHillClimbOnlyImproves(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	s := newSumState(30, rng)
	start := s.cost
	res := HillClimb(s, 5000, 7)
	if res.DeltaSum > 0 {
		t.Errorf("hill climb applied worsening moves: delta %v", res.DeltaSum)
	}
	if s.cost > start {
		t.Errorf("hill climb worsened: %v -> %v", start, s.cost)
	}
}

// cycleState proposes a fixed cycle of deltas regardless of the rng, and
// records each applied delta — a probe for acceptance-rule semantics.
type cycleState struct {
	deltas  []float64
	i       int
	applied []float64
}

func (c *cycleState) Propose(rng *rand.Rand) (float64, func(), bool) {
	d := c.deltas[c.i%len(c.deltas)]
	c.i++
	return d, func() { c.applied = append(c.applied, d) }, true
}

// TestZeroDeltaMoveParity pins the shared acceptance semantics of
// HillClimb and Anneal on the delta axis: both accept delta <= 0
// unconditionally (zero-delta plateau moves included) and, at
// effectively zero temperature, both reject any worsening move. HillClimb
// used to reject delta == 0 while Anneal accepted it, so "Anneal at zero
// temperature" silently disagreed with the climber on plateaus.
func TestZeroDeltaMoveParity(t *testing.T) {
	deltas := []float64{0, 1, -1, 0, 2, -0.5, 0}
	hc := &cycleState{deltas: deltas}
	an := &cycleState{deltas: deltas}
	steps := len(deltas)
	HillClimb(hc, steps, 99)
	// T so small that exp(-delta/T) underflows to 0 for every positive
	// delta: the Metropolis roll can never accept a worsening move.
	must(AnnealCtx(context.Background(), an, AnnealConfig{Steps: steps, T0: 1e-300, T1: 1e-300, Seed: 99}))
	want := []float64{0, -1, 0, -0.5, 0}
	check := func(name string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s applied %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s applied %v, want %v", name, got, want)
			}
		}
	}
	check("HillClimb", hc.applied)
	check("Anneal", an.applied)
}

func TestSolveBinaryKnapsackStyle(t *testing.T) {
	// Minimize sum of selected costs subject to selecting at least 3 of 6
	// items. Optimum: three cheapest = 1+2+3.
	costs := []float64{5, 1, 4, 2, 6, 3}
	p := BinaryProblem{
		N: 6,
		Cost: func(x []bool) float64 {
			t := 0.0
			for i, v := range x {
				if v {
					t += costs[i]
				}
			}
			return t
		},
		Feasible: func(x []bool) bool {
			n := 0
			for _, v := range x {
				if v {
					n++
				}
			}
			return n >= 3
		},
	}
	best, cost, exact := SolveBinary(p, 1<<20)
	if !exact {
		t.Fatal("search not exact within budget")
	}
	if cost != 6 {
		t.Errorf("cost = %v, want 6 (items 1,3,5): %v", cost, best)
	}
}

func TestSolveBinaryBudgetExhaustion(t *testing.T) {
	p := BinaryProblem{
		N:    20,
		Cost: func(x []bool) float64 { return 0 },
	}
	_, _, exact := SolveBinary(p, 10)
	if exact {
		t.Error("claimed exact with 10-node budget on 2^20 tree")
	}
}

func TestSolveBinaryBoundPrunes(t *testing.T) {
	// With a perfect bound, the tree collapses. Count via node budget:
	// generous bound-free search needs > 2^10 nodes; bounded search must
	// finish within a small budget.
	costs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	p := BinaryProblem{
		N: 10,
		Cost: func(x []bool) float64 {
			t := 0.0
			for i, v := range x {
				if v {
					t += costs[i]
				}
			}
			return t
		},
		Bound: func(x []bool, fixed int) float64 {
			t := 0.0
			for i := 0; i < fixed; i++ {
				if x[i] {
					t += costs[i]
				}
			}
			return t
		},
	}
	_, cost, exact := SolveBinary(p, 200)
	if !exact || cost != 0 {
		t.Errorf("bounded search: exact=%v cost=%v, want exact cost 0", exact, cost)
	}
}
