package solver

import "math"

// BinaryProblem is a small 0/1 minimization: choose x ∈ {0,1}ⁿ minimizing
// Cost(x) subject to Feasible(x). Bound gives a lower bound on the best
// completion of a partial assignment (variables < fixed are decided);
// returning -Inf disables pruning for that node.
//
// It is an oracle, not a shipped path: the lifecycle planner's
// splice-chooser test encodes small splice choices as BinaryProblems and
// checks the hill-climbed choice against the exact optimum.
type BinaryProblem struct {
	N        int
	Cost     func(x []bool) float64
	Feasible func(x []bool) bool
	// Bound(x, fixed) lower-bounds cost over completions of x[0:fixed].
	// nil means no pruning beyond feasibility at the leaves.
	Bound func(x []bool, fixed int) float64
}

// SolveBinary explores the full tree with best-first pruning and returns
// the best feasible assignment. maxNodes caps the search; if exceeded the
// best-so-far (possibly nil) is returned with exact=false.
func SolveBinary(p BinaryProblem, maxNodes int) (best []bool, cost float64, exact bool) {
	cost = math.Inf(1)
	x := make([]bool, p.N)
	nodes := 0
	var rec func(i int) bool // returns false when node budget exhausted
	rec = func(i int) bool {
		nodes++
		if nodes > maxNodes {
			return false
		}
		if p.Bound != nil && i > 0 {
			if lb := p.Bound(x, i); lb >= cost {
				return true
			}
		}
		if i == p.N {
			if p.Feasible == nil || p.Feasible(x) {
				if c := p.Cost(x); c < cost {
					cost = c
					best = append([]bool(nil), x...)
				}
			}
			return true
		}
		for _, v := range [2]bool{false, true} {
			x[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	exact = rec(0)
	return best, cost, exact
}
