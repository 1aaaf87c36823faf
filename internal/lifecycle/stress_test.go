package lifecycle

import (
	"math/rand/v2"
	"os"
	"testing"
)

// stressInstance draws the seed's random fabric and a demand matrix
// built by pairing a random subset of each panel's fronts and backs, so
// the demand is feasible by construction. ok is false when the drawn
// parameters make no fabric.
func stressInstance(seed uint64) (cf *ClosFabric, demand [][]int, ok bool) {
	rng := rand.New(rand.NewPCG(seed, 0x57e55))
	aggs := 2 + int(rng.IntN(5))
	spines := 2 + int(rng.IntN(4))
	uplinks := spines * (1 + int(rng.IntN(3)))
	panelPorts := 8 + int(rng.IntN(4))*8
	cf, err := NewClosFabric(aggs, spines, uplinks, panelPorts)
	if err != nil {
		return nil, nil, false
	}
	demand = zeroMatrix(aggs, spines)
	for pi, panel := range cf.Panels {
		var fronts, backs []int
		for f := 0; f < panel.Ports; f++ {
			if cf.frontOwner[pi][f] != -1 {
				fronts = append(fronts, f)
			}
			if cf.backOwner[pi][f] != -1 {
				backs = append(backs, f)
			}
		}
		rng.Shuffle(len(fronts), func(i, j int) { fronts[i], fronts[j] = fronts[j], fronts[i] })
		rng.Shuffle(len(backs), func(i, j int) { backs[i], backs[j] = backs[j], backs[i] })
		n := min(len(fronts), len(backs))
		n = rng.IntN(n + 1)
		for i := 0; i < n; i++ {
			demand[cf.frontOwner[pi][fronts[i]]][cf.backOwner[pi][backs[i]]]++
		}
	}
	return cf, demand, true
}

// TestStressDecomposition runs the feasible-instance sweep over a much
// larger seed range. Skipped unless LIFECYCLE_STRESS=1 — it exists to
// shake out rare repair-search gaps before releases.
func TestStressDecomposition(t *testing.T) {
	if os.Getenv("LIFECYCLE_STRESS") == "" {
		t.Skip("set LIFECYCLE_STRESS=1 to run the 20k-seed sweep")
	}
	for seed := uint64(0); seed < 20000; seed++ {
		cf, demand, ok := stressInstance(seed)
		if !ok {
			continue
		}
		if _, err := cf.Rewire(demand); err != nil {
			t.Fatalf("seed %d (aggs=%d spines=%d panels=%d): %v",
				seed, cf.Aggs, cf.Spines, len(cf.Panels), err)
		}
	}
}
