// Command topogen generates a topology and prints its graph-theoretic
// profile — the abstract side of the deployability tradeoff, on its own
// for quick comparisons.
//
// Usage:
//
//	topogen -topo jellyfish -n 128 -radix 16 -net 8
//	topogen -topo fattree -k 16
//	topogen -topo slimfly -q 13
//	topogen -topo jellyfish -n 128 -radix 16 -net 8 -emit fabric.json
//	topogen -topo-file fabric.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"physdep/internal/cli"
	"physdep/internal/interchange"
	"physdep/internal/trafficsim"
)

func main() {
	params := cli.RegisterTopoFlags(flag.CommandLine)
	var (
		tput = flag.Bool("throughput", false, "also compute uniform-traffic throughput (slower)")
		emit = flag.String("emit", "", "also write the fabric as an interchange document to this path")
	)
	flag.Parse()
	ctx := context.Background()
	tp, _, err := cli.LoadTopology(ctx, *params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *emit != "" {
		doc := interchange.FromTopology(tp)
		// Provenance is informational: a re-upload or reload never reads it.
		spec, _ := json.Marshal(*params)
		doc.Generator = &interchange.Provenance{Tool: "topogen", Family: params.Name, Spec: string(spec)}
		if err := interchange.EmitFile(*emit, doc); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("emitted: %s\n", *emit)
	}
	st, err := tp.BasicStatsCtx(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	rng := rand.New(rand.NewPCG(params.Seed, params.Seed^0x70706f))
	gap, err := tp.SpectralGapCtx(ctx, 300, rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	bisect, err := tp.BisectionEstimateCtx(ctx, 6, rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("topology: %s\n", tp.Name)
	fmt.Printf("  switches: %d   links: %d   servers: %d\n", st.Switches, st.Links, st.Servers)
	min, max := tp.MinMaxDegree()
	fmt.Printf("  degree: %d..%d   regular: %v\n", min, max, min == max)
	fmt.Printf("  ToR diameter: %d   mean ToR hops: %.3f\n", st.ToRDiam, st.ToRMean)
	fmt.Printf("  spectral gap: %.4f   bisection (heuristic): %.0f Gbps\n", gap, bisect)
	if *tput {
		tors := tp.ToRs()
		if len(tors) == 0 {
			fmt.Fprintln(os.Stderr, "error: -throughput needs a fabric with ToRs")
			os.Exit(1)
		}
		// Server ports run at the ToR's own line rate, not at -rate.
		tor := tp.Nodes[tors[0]]
		m := trafficsim.Uniform(len(tors), float64(tor.ServerPorts)*float64(tor.Rate))
		ae, err := trafficsim.ECMPThroughput(tp, m)
		if err == nil {
			fmt.Printf("  uniform-traffic alpha (ECMP): %.3f\n", ae)
		}
		ak, err := trafficsim.KSPThroughputCtx(ctx, tp, m, trafficsim.JellyfishK)
		if err == nil {
			fmt.Printf("  uniform-traffic alpha (KSP-%d): %.3f\n", trafficsim.JellyfishK, ak)
		}
	}
}
