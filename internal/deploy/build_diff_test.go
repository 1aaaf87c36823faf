package deploy

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/cli"
	"physdep/internal/costmodel"
	"physdep/internal/floorplan"
	"physdep/internal/interchange"
	"physdep/internal/placement"
)

// The largest fabric the evaluate-miss workload draws: a 96-switch
// jellyfish in the daemon's default 6×16 hall.
var benchFabric = cli.TopoParams{Name: "jellyfish", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1}

// diffFamilies holds one fabric per cli.Families() entry at
// evaluate-miss sizes.
var diffFamilies = map[string]cli.TopoParams{
	"fattree":       {Name: "fattree", K: 8, Rate: 100},
	"leafspine":     {Name: "leafspine", N: 64, Spines: 16, Net: 8, Radix: 16, Rate: 100},
	"jellyfish":     benchFabric,
	"xpander":       {Name: "xpander", D: 8, Lift: 8, Radix: 16, Rate: 100, Seed: 1},
	"flatbutterfly": {Name: "flatbutterfly", N: 8, K: 2, Radix: 8, Rate: 100},
	"fatclique":     {Name: "fatclique", D: 4, Lift: 4, K: 4, Radix: 8, Rate: 100},
	"slimfly":       {Name: "slimfly", Q: 5, Radix: 9, Rate: 100},
	"vl2":           {Name: "vl2", D: 16, Lift: 16, Radix: 16, Rate: 100},
	"flatrandom":    {Name: "flatrandom", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1},
	"file":          {Name: "file"}, // the jellyfish, written out as a document
}

// placeFamily places p's fabric greedily in a 6×16 hall, as
// core.EvaluateCtx does.
func placeFamily(t *testing.T, p cli.TopoParams) *placement.Placement {
	t.Helper()
	if p.Name == "file" {
		topo, err := cli.BuildTopology(benchFabric)
		if err != nil {
			t.Fatal(err)
		}
		b, err := interchange.FromTopology(topo).Encode()
		if err != nil {
			t.Fatal(err)
		}
		p.File = filepath.Join(t.TempDir(), "fabric.json")
		if err := os.WriteFile(p.File, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := cli.BuildTopology(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(6, 16))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placement.Greedy(topo, f, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// planFamily places p's fabric as placeFamily does and plans its cables
// with the default catalog and options.
func planFamily(t *testing.T, p cli.TopoParams) (*placement.Placement, *cabling.Plan) {
	t.Helper()
	pl := placeFamily(t, p)
	plan, err := cabling.PlanCables(pl.Floor, cabling.DefaultCatalog(), pl.Demands(nil), cabling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl, plan
}

// assertSameBuild requires Build and the reference to give the same
// tasks (kinds, minutes, locations, deps and cable links) and the same
// off-floor minutes, with and without prebundling.
func assertSameBuild(t *testing.T, name string, p *placement.Placement, plan *cabling.Plan, m *costmodel.Model) {
	t.Helper()
	for _, prebundle := range []bool{true, false} {
		opts := BuildOptions{Prebundle: prebundle}
		got, want := Build(p, plan, m, opts), refBuild(p, plan, m, opts)
		if len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("%s prebundle=%v: %d tasks, reference %d", name, prebundle, len(got.Tasks), len(want.Tasks))
		}
		for i := range got.Tasks {
			if !reflect.DeepEqual(got.Tasks[i], want.Tasks[i]) {
				t.Fatalf("%s prebundle=%v: task %d = %+v, reference %+v", name, prebundle, i, got.Tasks[i], want.Tasks[i])
			}
		}
		if got.OffFloorMinutes != want.OffFloorMinutes {
			t.Fatalf("%s prebundle=%v: off-floor %v min, reference %v", name, prebundle, got.OffFloorMinutes, want.OffFloorMinutes)
		}
	}
}

// TestBuildMatchesReference pins Build to the slice-per-task reference
// on every family's cable plan, and on plans of seeded random demands
// (random topology edges between a few random racks, some of them
// without a placed rack). The random sets must reach both ends of the
// bundling rule: a rack-pair group longer than cabling.MaxBundleCables
// (a split) and one shorter than cabling.MinBundleSize (singletons).
func TestBuildMatchesReference(t *testing.T) {
	m := costmodel.Default()
	for _, fam := range cli.Families() {
		fp, ok := diffFamilies[fam]
		if !ok {
			t.Errorf("family %q has no differential case", fam)
			continue
		}
		p, plan := planFamily(t, fp)
		assertSameBuild(t, fam, p, plan, m)
	}
	p := placeFamily(t, benchFabric)
	split, singles := false, false
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xde9107))
		racks := make([]floorplan.RackLoc, 2+rng.IntN(6))
		for i := range racks {
			racks[i] = p.Floor.LocOf(rng.IntN(p.Floor.NumRacks()))
		}
		demands := make([]cabling.Demand, rng.IntN(300))
		for i := range demands {
			demands[i] = cabling.Demand{ID: rng.IntN(len(p.Topo.Edges)),
				From: racks[rng.IntN(len(racks))], To: racks[rng.IntN(len(racks))], Rate: 100}
		}
		plan, err := cabling.PlanCables(p.Floor, cabling.DefaultCatalog(), demands, cabling.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameBuild(t, fmt.Sprintf("seed %d", seed), p, plan, m)
		group := map[[2]int]int{}
		for _, d := range demands {
			a, b := p.Floor.RackIndex(d.From), p.Floor.RackIndex(d.To)
			group[[2]int{min(a, b), max(a, b)}]++
		}
		for _, n := range group {
			split = split || n > cabling.MaxBundleCables
			singles = singles || n < cabling.MinBundleSize
		}
	}
	if !split || !singles {
		t.Errorf("random demand sets lack a group over %d cables (%v) or under %d (%v)",
			cabling.MaxBundleCables, split, cabling.MinBundleSize, singles)
	}
}

// TestExecuteMatchesReference pins ExecuteCtx to the container/heap
// reference on every family's prebundled plan, across crew sizes, rack
// worker caps and a yield low enough that reworks extend the schedule:
// equal Schedules, per-task start times included.
func TestExecuteMatchesReference(t *testing.T) {
	m := costmodel.Default()
	for _, fam := range cli.Families() {
		fp, ok := diffFamilies[fam]
		if !ok {
			t.Errorf("family %q has no differential case", fam)
			continue
		}
		p, plan := planFamily(t, fp)
		dp := Build(p, plan, m, BuildOptions{Prebundle: true})
		for _, techs := range []int{1, 8} {
			for _, perRack := range []int{0, 2} {
				for _, yield := range []float64{0, 0.7} {
					opts := ExecOptions{Techs: techs, Seed: 3, YieldOverride: yield, MaxWorkersPerRack: perRack}
					got, err := ExecuteCtx(context.Background(), dp, m, p.Floor, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refExecuteCtx(context.Background(), dp, m, p.Floor, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %+v: schedule differs from the reference", fam, opts)
					}
					if yield > 0 && got.Reworks == 0 {
						t.Fatalf("%s %+v: no reworks", fam, opts)
					}
				}
			}
		}
	}
}

// TestBuildAllocs holds Build on the 96-switch fixture to a fixed
// allocation ceiling. Its 5 allocations are per plan, not per task: the
// plan, its task list, the shared deps array and the rack and switch
// task indexes (the slice-per-task Build made 1,263).
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, plan := planFamily(t, benchFabric)
	m := costmodel.Default()
	allocs := testing.AllocsPerRun(20, func() {
		Build(p, plan, m, BuildOptions{Prebundle: true})
	})
	const ceiling = 5
	if allocs > ceiling {
		t.Errorf("Build: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}

// TestExecuteAllocs holds ExecuteCtx on the 96-switch fixture to fixed
// ceilings, about 5% above its 15 allocations and 75,840 bytes. It reads
// the plan in place and keeps reworks in a side list, so it allocates
// per-plan arrays plus the amortized growth of the ready heap and the
// side list (the copy of the task list grown per rework made 38
// allocations and 329,601 bytes; the container/heap scheduler with a
// children slice per task, 3,861 allocations).
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, plan := planFamily(t, benchFabric)
	m := costmodel.Default()
	dp := Build(p, plan, m, BuildOptions{Prebundle: true})
	run := func() {
		if _, err := ExecuteCtx(context.Background(), dp, m, p.Floor, ExecOptions{Techs: 8, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	allocs, bytes := testing.AllocsPerRun(20, run), bytesPerRun(20, run)
	const ceiling, byteCeiling = 16, 79_632
	if allocs > ceiling {
		t.Errorf("ExecuteCtx: %.0f allocs, ceiling %d", allocs, ceiling)
	}
	if bytes > byteCeiling {
		t.Errorf("ExecuteCtx: %d bytes, ceiling %d", bytes, byteCeiling)
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
