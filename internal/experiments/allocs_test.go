package experiments

import (
	"context"
	"testing"

	"physdep/internal/par"
)

// TestExperimentAllocs holds E14 and E19 at one worker under allocation
// ceilings about 5% above what they make (30,891 and 1,549,097). When E14
// laid out its fat-tree afresh for each of its 500 variants, and E19
// solved the unbroken fabric on every zero-kill trial, they made 229,029
// and 1,851,705.
func TestExperimentAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("E19 takes about a second; skipping in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	for _, c := range []struct {
		id      string
		ceiling float64
	}{{"E14", 32_400}, {"E19", 1_600_000}} {
		run := Get(c.id)
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs, ceiling %.0f", c.id, allocs, c.ceiling)
		}
	}
}
