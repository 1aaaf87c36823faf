package twin

import (
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/cli"
	"physdep/internal/floorplan"
	"physdep/internal/placement"
)

// hallFixture places p's fabric greedily in a rows×slots default hall and
// plans its cables: the inputs core.EvaluateCtx hands to FromNetwork.
func hallFixture(tb testing.TB, p cli.TopoParams, rows, slots int) (*placement.Placement, *cabling.Plan) {
	tb.Helper()
	topo, err := cli.BuildTopology(p)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(rows, slots))
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := placement.Greedy(topo, f, placement.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), pl.Demands(nil), cabling.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return pl, plan
}

// The largest fabric the evaluate-miss workload draws: a 96-switch
// jellyfish in the daemon's default 6×16 hall.
var benchFabric = cli.TopoParams{Name: "jellyfish", N: 96, Radix: 16, Net: 8, Rate: 100, Seed: 1}

var benchSink int

func BenchmarkFromNetwork(b *testing.B) {
	p, plan := hallFixture(b, benchFabric, 6, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := FromNetwork(p, plan)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += m.NumEntities()
	}
}

// BenchmarkCheckAll times a check on a freshly built model, as
// core.EvaluateCtx runs it: the build is outside the timer, and any
// index the check needs is built inside it.
func BenchmarkCheckAll(b *testing.B) {
	p, plan := hallFixture(b, benchFabric, 6, 16)
	schema, rules := DefaultSchema(), DefaultRules()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := FromNetwork(p, plan)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchSink += len(CheckAll(m, schema, rules))
	}
}

// The fleet-scale fabric: 4000 switches of a flat random graph with 8
// network ports each, in a 50×200 hall.
var fleetFabric = cli.TopoParams{Name: "flatrandom", N: 4000, Radix: 16, Net: 8, Rate: 100, Seed: 1}

// BenchmarkTwinFleet times the twin phase of core.EvaluateCtx at fleet
// scale: FromNetwork and then CheckAll.
func BenchmarkTwinFleet(b *testing.B) {
	p, plan := hallFixture(b, fleetFabric, 50, 200)
	schema, rules := DefaultSchema(), DefaultRules()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := FromNetwork(p, plan)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(CheckAll(m, schema, rules))
	}
}

// TestFromNetworkAllocs holds FromNetwork on the 96-switch fixture to a
// count that does not grow with the fabric, 5% above its 35: IDs,
// entities, attribute windows, relations and the ID order are each
// allocated in bulk, Tags stays nil, and no ID map is built. With an ID
// map it made 38; with per-entity Attrs and Tags maps, 2,071.
func TestFromNetworkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, plan := hallFixture(t, benchFabric, 6, 16)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := FromNetwork(p, plan); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 36 // 678 entities
	if allocs > ceiling {
		t.Errorf("FromNetwork: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}

// TestCheckAllAllocs holds a check of a freshly built 96-switch model,
// index build included, to a fixed allocation ceiling, 5% above its 17.
// With a string sort of the IDs per index build and a list of allowed
// kind pairs per verb it made 27.
func TestCheckAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, plan := hallFixture(t, benchFabric, 6, 16)
	m, err := FromNetwork(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	schema, rules := DefaultSchema(), DefaultRules()
	allocs := testing.AllocsPerRun(20, func() {
		m.idx = nil // as after a mutation: the check builds the index
		benchSink += len(CheckAll(m, schema, rules))
	})
	const ceiling = 17
	if allocs > ceiling {
		t.Errorf("CheckAll: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}
