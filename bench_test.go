package physdep

import (
	"context"
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/experiments"
	"physdep/internal/floorplan"
	"physdep/internal/lifecycle"
	"physdep/internal/obs"
	"physdep/internal/placement"
	"physdep/internal/topology"
	"physdep/internal/trafficsim"
)

// One benchmark per experiment: BenchmarkE1…E14 regenerate the paper-
// claim tables (DESIGN.md §3 maps each to its paper anchor). The work
// measured is the full experiment pipeline; failures abort the bench.

func benchExperiment(b *testing.B, id string) {
	run := experiments.Get(id)
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Lines) < 2 {
			b.Fatalf("%s produced no table", id)
		}
	}
}

func BenchmarkE1Deployability(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE1DeployabilityObs is BenchmarkE1Deployability with
// observability collection enabled — the pair bounds the collection
// overhead (the obs layer's budget is <5% on this, the heaviest
// experiment; compare with benchstat or the raw ns/op).
func BenchmarkE1DeployabilityObs(b *testing.B) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	benchExperiment(b, "E1")
}
func BenchmarkE2MediaCrossover(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3Expansion(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4JupiterConversion(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5Indirection(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6UnitOfRepair(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7ThroughputVsDeploy(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8Bundling(b *testing.B)            { benchExperiment(b, "E8") }
func BenchmarkE9StrandedCapital(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10TwinDryRun(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11Heterogeneity(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Fungibility(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13Decom(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkE14Envelope(b *testing.B)           { benchExperiment(b, "E14") }
func BenchmarkE15CapacityPlanning(b *testing.B)   { benchExperiment(b, "E15") }
func BenchmarkE16TopologyEng(b *testing.B)        { benchExperiment(b, "E16") }
func BenchmarkE17ActivePanels(b *testing.B)       { benchExperiment(b, "E17") }
func BenchmarkE18RobotCrews(b *testing.B)         { benchExperiment(b, "E18") }
func BenchmarkE19FailureDegradation(b *testing.B) { benchExperiment(b, "E19") }
func BenchmarkE20DayOneVsLifetime(b *testing.B)   { benchExperiment(b, "E20") }
func BenchmarkE21HumanFactors(b *testing.B)       { benchExperiment(b, "E21") }
func BenchmarkE22SupplyChainAudit(b *testing.B)   { benchExperiment(b, "E22") }
func BenchmarkE23PlannerGrowth(b *testing.B)      { benchExperiment(b, "E23") }
func BenchmarkE24PlannerVsNaive(b *testing.B)     { benchExperiment(b, "E24") }

// The E-scale band: fleet-size fabrics under the sampled path-stats
// estimator (DESIGN.md §11). These are the multicore headline targets —
// their all-pairs sweeps dominate, so worker-count sweeps show real
// scaling where the classic band's small fabrics amortize poorly.
func BenchmarkES1SampledCalibration(b *testing.B) { benchExperiment(b, "ES1") }
func BenchmarkES2FleetScale(b *testing.B)         { benchExperiment(b, "ES2") }

// --- Ablations: the design choices DESIGN.md §4 calls out. Each reports
// its quality delta as a custom metric alongside the timing.

// Placement: greedy-only vs greedy+annealing. Reports the cable-length
// ratio anneal/greedy (lower is better; <1 means annealing helped). The
// annealer runs its 4-chain multi-restart mode, so this also measures the
// parallel restart fan-out (scale workers with -cpu, which sets GOMAXPROCS).
func BenchmarkAblationPlacement(b *testing.B) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		b.Fatal(err)
	}
	hall := floorplan.DefaultHall(5, 14)
	ratio := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg, err := floorplan.NewFloorplan(hall)
		if err != nil {
			b.Fatal(err)
		}
		pg, err := placement.Greedy(ft, fg, placement.Config{})
		if err != nil {
			b.Fatal(err)
		}
		greedyLen := pg.CableLength()
		_, annealLen, err := placement.OptimizeRestartsCtx(context.Background(), pg, 20000, uint64(i+1), 4)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(annealLen) / float64(greedyLen)
	}
	b.ReportMetric(ratio, "len-ratio")
}

// Kernel benchmarks for the two parallel substrates the experiments lean
// on hardest: the all-pairs BFS sweep and KSP path enumeration.

func BenchmarkKernelAllPairsStats(b *testing.B) {
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 128, K: 16, R: 8, Rate: 100, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := must(jf.AllPairsStatsCtx(context.Background(), jf.ToRs()))
		if st.Diameter == 0 {
			b.Fatal("degenerate stats")
		}
	}
}

func BenchmarkKernelKSPThroughput(b *testing.B) {
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 64, K: 12, R: 6, Rate: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	m := trafficsim.Uniform(64, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trafficsim.KSPThroughputCtx(context.Background(), jf, m, trafficsim.JellyfishK); err != nil {
			b.Fatal(err)
		}
	}
}

// Rewiring: the minimal-rewiring solver's live moves vs the theoretical
// minimum Σ(target − min(cur, target)). Reports the optimality gap
// (0 = exact).
func BenchmarkAblationMinimalRewiring(b *testing.B) {
	gap := 0.0
	for i := 0; i < b.N; i++ {
		cf, err := lifecycle.NewClosFabric(8, 4, 16, 64)
		if err != nil {
			b.Fatal(err)
		}
		cur := lifecycle.UniformDemand(8, 4, 16)
		cur[0][0] += 4
		cur[0][1] -= 4
		cur[1][0] -= 4
		cur[1][1] += 4
		if _, err := cf.Rewire(cur); err != nil {
			b.Fatal(err)
		}
		target := lifecycle.UniformDemand(8, 4, 16)
		want := 0
		for a := range target {
			for s := range target[a] {
				keep := cur[a][s]
				if target[a][s] < keep {
					keep = target[a][s]
				}
				want += target[a][s] - keep
			}
		}
		rep, err := cf.Rewire(target)
		if err != nil {
			b.Fatal(err)
		}
		gap = float64(rep.JumperMoves - want)
	}
	b.ReportMetric(gap, "moves-over-min")
}

// Bundling: per-rack-pair bundles vs individual pulls, measured as the
// bundleability score the planner achieves on a fat-tree.
func BenchmarkAblationBundling(b *testing.B) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		b.Fatal(err)
	}
	hall := floorplan.DefaultHall(5, 14)
	score := 0.0
	for i := 0; i < b.N; i++ {
		f, err := floorplan.NewFloorplan(hall)
		if err != nil {
			b.Fatal(err)
		}
		p, err := placement.Greedy(ft, f, placement.Config{})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
		if err != nil {
			b.Fatal(err)
		}
		score = plan.BundleabilityScore()
	}
	b.ReportMetric(score, "bundleability")
}

// Throughput proxies: ECMP vs KSP on an expander — reports the ratio
// KSP/ECMP (how much admissible traffic ECMP leaves on the table).
func BenchmarkAblationThroughputProxy(b *testing.B) {
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 64, K: 12, R: 6, Rate: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	m := trafficsim.Uniform(64, 300)
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		ae, err := trafficsim.ECMPThroughput(jf, m)
		if err != nil {
			b.Fatal(err)
		}
		ak, err := trafficsim.KSPThroughputCtx(context.Background(), jf, m, trafficsim.JellyfishK)
		if err != nil {
			b.Fatal(err)
		}
		ratio = ak / ae
	}
	b.ReportMetric(ratio, "ksp/ecmp")
}

// Ensure the registry and the benchmark list stay in sync.
func TestBenchCoverageMatchesExperiments(t *testing.T) {
	want := len(experiments.Order())
	// One BenchmarkE* per experiment, enumerated above (24 classic + ES1,
	// ES2).
	got := 26
	if got != want {
		t.Fatalf("bench harness covers %d experiments, registry has %d — add the missing BenchmarkE*", got, want)
	}
	for _, id := range experiments.Order() {
		if experiments.Get(id) == nil {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
}

// must unwraps a kernel result computed under context.Background(),
// which cannot cancel, so the error is structurally nil.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
