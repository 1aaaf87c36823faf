package core

import (
	"context"
	"testing"

	"physdep/internal/cli"
	"physdep/internal/floorplan"
)

// BenchmarkEvaluateFleet evaluates one fleet-scale flat fabric: a
// 4,000-switch flatrandom (radix 16, 8 network ports) in a 50×200 hall,
// where the bisection refinement used to be nearly the whole evaluation.
func BenchmarkEvaluateFleet(b *testing.B) {
	topo, err := cli.BuildTopology(cli.TopoParams{Name: "flatrandom", N: 4000, Radix: 16, Net: 8, Rate: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	in := DefaultInput(topo, floorplan.DefaultHall(50, 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateCtx(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEvaluateAllocs holds a whole evaluation of the 96-switch jellyfish
// in the default 6×16 hall to a fixed allocation ceiling, 5% above its
// 622 allocations. Plans allocate per plan, not per task or cable,
// greedy placement sums rack units in one pass, and the twin keeps its
// attributes in one slab, not per-entity maps (the evaluation with a
// slice per task and per child list made 10,481; with a switch list per
// rack, 2,750; with the twin's maps, 2,655).
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	topo, err := cli.BuildTopology(cli.TopoParams{Name: "jellyfish", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := DefaultInput(topo, floorplan.DefaultHall(cli.DefaultRows, cli.DefaultSlots))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := EvaluateCtx(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 653
	if allocs > ceiling {
		t.Errorf("EvaluateCtx: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}
