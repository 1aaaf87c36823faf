package cabling_test

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/cli"
	"physdep/internal/floorplan"
	"physdep/internal/interchange"
	"physdep/internal/placement"
	"physdep/internal/units"
)

// diffFamilies holds one fabric per cli.Families() entry at
// evaluate-miss sizes, placed in the daemon's default 6×16 hall.
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

// The largest fabric the evaluate-miss workload draws: a 96-switch
// jellyfish in the daemon's default 6×16 hall.
var benchFabric = cli.TopoParams{Name: "jellyfish", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1}

// familyDemands places p's fabric greedily in a 6×16 hall and returns
// the hall and the placement's demands: PlanCables' inputs in
// core.EvaluateCtx.
func familyDemands(t *testing.T, p cli.TopoParams) (*floorplan.Floorplan, []cabling.Demand) {
	t.Helper()
	if p.Name == "file" {
		p.File = writeDocument(t, benchFabric)
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
	return f, pl.Demands(nil)
}

func writeDocument(t *testing.T, p cli.TopoParams) string {
	t.Helper()
	topo, err := cli.BuildTopology(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := interchange.FromTopology(topo).Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fabric.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertSamePlan runs PlanCables and the reference planner on the same
// input and requires identical cables, bundles (members, route and
// cross-section bits) and tray loads. Each bundle's CableIdx must also
// be capacity-capped, so an append to one cannot write into another.
func assertSamePlan(t *testing.T, name string, f *floorplan.Floorplan, demands []cabling.Demand) {
	t.Helper()
	cat := cabling.DefaultCatalog()
	got, err := cabling.PlanCables(f, cat, demands, cabling.Options{})
	want, refErr := cabling.RefPlanCables(f, cat, demands, cabling.Options{})
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: error %v, reference %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got.Cables, want.Cables) {
		t.Fatalf("%s: cables differ from the reference", name)
	}
	if len(got.Bundles) != len(want.Bundles) {
		t.Fatalf("%s: %d bundles, reference %d", name, len(got.Bundles), len(want.Bundles))
	}
	for i, b := range got.Bundles {
		if !reflect.DeepEqual(b, want.Bundles[i]) {
			t.Fatalf("%s: bundle %d = %+v, reference %+v", name, i, b, want.Bundles[i])
		}
		if cap(b.CableIdx) != len(b.CableIdx) {
			t.Fatalf("%s: bundle %d CableIdx has len %d but cap %d", name, i, len(b.CableIdx), cap(b.CableIdx))
		}
	}
	for s := 0; s < f.NumTraySegments(); s++ {
		if g, w := got.Tray.Used(s), want.Tray.Used(s); g != w {
			t.Fatalf("%s: tray segment %d holds %v mm², reference %v", name, s, g, w)
		}
	}
}

// randomDemands draws n demands between a few racks of f, so that rack
// pairs repeat in both orientations and groups are long enough to
// split; a tenth stay inside one rack.
func randomDemands(rng *rand.Rand, f *floorplan.Floorplan, n int) []cabling.Demand {
	racks := make([]floorplan.RackLoc, 2+rng.IntN(6))
	for i := range racks {
		racks[i] = f.LocOf(rng.IntN(f.NumRacks()))
	}
	rates := []units.Gbps{40, 100, 400}
	ds := make([]cabling.Demand, n)
	for i := range ds {
		from := racks[rng.IntN(len(racks))]
		to := racks[rng.IntN(len(racks))]
		if rng.IntN(10) == 0 {
			to = from
		}
		ds[i] = cabling.Demand{ID: i, From: from, To: to, Rate: rates[rng.IntN(len(rates))]}
	}
	return ds
}

// TestPlanCablesMatchesReference pins the sort-grouped planner to the
// map-grouped reference on every family's placed demands and on seeded
// random demand sets. The random sets must reach both ends of the
// bundling rule: a rack-pair group longer than MaxBundleCables (a split)
// and one shorter than MinBundleSize (singletons).
func TestPlanCablesMatchesReference(t *testing.T) {
	for _, fam := range cli.Families() {
		p, ok := diffFamilies[fam]
		if !ok {
			t.Errorf("family %q has no differential case", fam)
			continue
		}
		f, demands := familyDemands(t, p)
		assertSamePlan(t, fam, f, demands)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(6, 16))
	if err != nil {
		t.Fatal(err)
	}
	split, singles := false, false
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xcab1e))
		demands := randomDemands(rng, f, rng.IntN(300))
		assertSamePlan(t, fmt.Sprintf("seed %d", seed), f, demands)
		for _, n := range groupSizes(f, demands) {
			split = split || n > cabling.MaxBundleCables
			singles = singles || n < cabling.MinBundleSize
		}
	}
	if !split || !singles {
		t.Errorf("random demand sets lack a group over %d cables (%v) or under %d (%v)",
			cabling.MaxBundleCables, split, cabling.MinBundleSize, singles)
	}
}

// groupSizes counts the demands of each rack pair, either orientation.
func groupSizes(f *floorplan.Floorplan, demands []cabling.Demand) map[[2]int]int {
	n := map[[2]int]int{}
	for _, d := range demands {
		a, b := f.RackIndex(d.From), f.RackIndex(d.To)
		n[[2]int{min(a, b), max(a, b)}]++
	}
	return n
}

// TestPlanCablesAllocs holds PlanCables on the 96-switch fixture to a
// fixed allocation ceiling, 5% above its 391 allocations. Its 384
// routes' segment lists, one exactly sized allocation each, make up
// nearly all of them; grouping costs a handful, with no per-group copies,
// and the bundle list is sized once (the map-grouped planner made 3,847,
// appending segments made 3,055, and appending bundles 400).
func TestPlanCablesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f, demands := familyDemands(t, benchFabric)
	cat := cabling.DefaultCatalog()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := cabling.PlanCables(f, cat, demands, cabling.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 410
	if allocs > ceiling {
		t.Errorf("PlanCables: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}
