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
