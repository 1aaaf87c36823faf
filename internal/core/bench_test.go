package core

import (
	"context"
	"runtime"
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
// in the default 6×16 hall to fixed ceilings, 5% above its 577
// allocations and 834,257 bytes; the GC's share of the CPU follows the
// bytes. Plans allocate per plan, not per task or cable, greedy
// placement sums rack units in one pass, the twin keeps its attributes
// in one slab, not per-entity maps, and builds neither an ID map nor a
// string sort of its IDs, and the scheduler reads the work plan in place
// (the evaluation with a slice per task and per child list made 10,481
// allocations; with a switch list per rack, 2,750; with the twin's maps,
// 2,655; with the scheduler's copy of the task list, 622 allocations and
// 1.22 MB; with the twin's ID map and sort, 590 and 877,891 bytes).
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	topo, err := cli.BuildTopology(cli.TopoParams{Name: "jellyfish", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := DefaultInput(topo, floorplan.DefaultHall(cli.DefaultRows, cli.DefaultSlots))
	run := func() {
		if _, err := EvaluateCtx(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	allocs, bytes := testing.AllocsPerRun(5, run), bytesPerRun(5, run)
	const ceiling, byteCeiling = 605, 875_969
	if allocs > ceiling {
		t.Errorf("EvaluateCtx: %.0f allocs, ceiling %d", allocs, ceiling)
	}
	if bytes > byteCeiling {
		t.Errorf("EvaluateCtx: %d bytes, ceiling %d", bytes, byteCeiling)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average number of
// heap bytes one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
