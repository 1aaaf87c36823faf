package experiments

import (
	"context"
	"fmt"
	"math"

	"physdep/internal/graph"
	"physdep/internal/topology"
)

// The E-scale band (ES1, ES2) evaluates fabrics at the fleet sizes the
// paper's deployability argument is actually about — 10k to 100k switches
// (RNG's "Flat Datacenter Networks at Scale" regime) — which is only
// possible because path statistics come from the sampled estimator: the
// exhaustive all-pairs sweep is Θ(N·(N+E)) and stops being an option
// around 10⁴ sources.

// escaleRadix is the common ToR radix across the band; network ports R
// vary per row, the remainder serve servers.
const escaleRadix = 32

// escaleFabric builds the band's flat random fabric at n switches with r
// network ports, deterministic per (n, r).
func escaleFabric(n, r int) (*topology.Topology, error) {
	return topology.FlatRandom(topology.FlatRandomConfig{
		N: n, K: escaleRadix, R: r, Rate: 100, Seed: 7_0001,
	})
}

// escaleRow renders one fabric's sampled scorecard line.
func escaleRow(t *topology.Topology, st topology.Stats) string {
	mode := "sampled"
	if st.PathsExact {
		mode = "exact"
	}
	return fmt.Sprintf("%-22s %9d %9d %9d %8s %8d %10.4f %9.4f %8d",
		t.Name, st.Switches, st.Links, st.Servers, mode, st.PathSources,
		st.ToRMean, st.ToRMeanCI, st.ToRDiam)
}

const escaleHeader = "%-22s %9s %9s %9s %8s %8s %10s %9s %8s"

// ES1SampledCalibration pins the sampled estimator against ground truth
// at a size where the exhaustive sweep is still affordable, then runs the
// 10k-switch band the calibration licenses. The calibration fabric is
// evaluated twice — exhaustively and with sampling forced — and the table
// reports the estimator's actual error next to its claimed 95% interval.
func ES1SampledCalibration(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "ES1",
		Title: "Sampled path-stats calibration and the 10k-switch band",
		Paper: "§4.2 via RNG (PAPERS.md): the deployability argument binds at fleet scale, where exhaustive all-pairs evaluation is no longer an option",
		Notes: "mean_ci is the estimator's 95% half-width (DESIGN.md §11); diam is a lower bound under sampling; calibration holds when |err| falls inside the interval",
	}

	// Calibration: exhaustive vs forced-sample on one 2000-ToR fabric.
	cal, err := escaleFabric(2000, 16)
	if err != nil {
		return nil, err
	}
	tors := cal.ToRs()
	exact, err := cal.AllPairsStatsCtx(ctx, tors)
	if err != nil {
		return nil, err
	}
	est, err := cal.AllPairsStatsSampledCtx(ctx, tors, graph.SampleSpec{
		Seed:            7_0002,
		ExhaustiveBelow: -1, // force sampling below the fallback threshold
	})
	if err != nil {
		return nil, err
	}
	errPct := 100 * (est.MeanHops - exact.MeanHops) / exact.MeanHops
	within := "yes"
	if math.Abs(est.MeanHops-exact.MeanHops) > est.MeanHopsCI {
		within = "NO"
	}
	res.Lines = append(res.Lines,
		fmt.Sprintf("calibration on %s (%d ToRs, %d sampled sources):", cal.Name, len(tors), est.Sources),
		fmt.Sprintf("  %-14s %10s %10s %8s %9s %8s", "mean_hops", "exact", "sampled", "err%", "mean_ci", "in_ci"),
		fmt.Sprintf("  %-14s %10.4f %10.4f %8.3f %9.4f %8s", "", exact.MeanHops, est.MeanHops, errPct, est.MeanHopsCI, within),
		"",
		fmt.Sprintf(escaleHeader, "topology", "switches", "links", "servers", "mode", "sources", "mean_hops", "mean_ci", "diam"),
	)

	// The 10k band: network-port share sweeps the server/fabric tradeoff.
	for _, r := range []int{8, 16, 24} {
		t, err := escaleFabric(10_000, r)
		if err != nil {
			return nil, err
		}
		st, err := t.BasicStatsCtx(ctx)
		if err != nil {
			return nil, err
		}
		res.Lines = append(res.Lines, escaleRow(t, st))
	}
	return res, nil
}

// ES2FleetScale runs the sizes the exhaustive sweep cannot touch: 50k and
// 100k switches. Alongside the sampled path stats it reports the
// routing-independent ideal throughput bound — capacity / (demand × mean
// hops) — which needs exactly the aggregate the estimator provides, so
// the fleet-scale version of E7's "ideal" column costs O(E) instead of
// O(N·(N+E)).
func ES2FleetScale(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "ES2",
		Title: "Fleet scale: 50k and 100k switches under the sampled estimator",
		Paper: "§4.2 via RNG (PAPERS.md): 100k-switch single-tier fabrics are the scenario class that demands estimation, not enumeration",
		Notes: "ideal_a = capacity/(demand×mean_hops), the fluid bound no routing scheme beats (E7's routing-independent column at fleet scale); 1.6M servers at the 100k point",
	}
	res.Lines = append(res.Lines,
		fmt.Sprintf(escaleHeader+" %8s", "topology", "switches", "links", "servers", "mode", "sources", "mean_hops", "mean_ci", "diam", "ideal_a"))
	for _, n := range []int{50_000, 100_000} {
		t, err := escaleFabric(n, 16)
		if err != nil {
			return nil, err
		}
		st, err := t.BasicStatsCtx(ctx)
		if err != nil {
			return nil, err
		}
		// The bound over the sampled mean: an exhaustive sweep is the very
		// thing this band cannot afford.
		ideal := idealAlpha(t, float64(escaleRadix-16)*100*float64(n), st.ToRMean)
		res.Lines = append(res.Lines, escaleRow(t, st)+fmt.Sprintf(" %8.3f", ideal))
	}
	return res, nil
}
