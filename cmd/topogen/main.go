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
	flags := cli.RegisterTopoFlags(flag.CommandLine)
	var (
		tput     = flag.Bool("throughput", false, "also compute uniform-traffic throughput (slower)")
		emit     = flag.String("emit", "", "also write the fabric as an interchange document to this path")
		topoFile = flag.String("topo-file", "", "profile an interchange document instead of generating (overrides -topo)")
	)
	flag.Parse()
	params := *flags
	if *topoFile != "" {
		params = cli.TopoParams{Name: "file", File: *topoFile}
	}
	tp, err := cli.BuildTopology(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *emit != "" {
		doc := interchange.FromTopology(tp)
		doc.Generator = &interchange.Provenance{Tool: "topogen", Family: params.Name, Spec: specJSON(params)}
		if err := interchange.EmitFile(*emit, doc); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("emitted: %s\n", *emit)
	}
	ctx := context.Background()
	st, err := tp.BasicStatsCtx(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	rng := rand.New(rand.NewPCG(flags.Seed, flags.Seed^0x70706f))
	gap := tp.SpectralGap(300, rng)
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
		per := float64(tp.Nodes[tors[0]].ServerPorts) * float64(flags.Rate)
		m := trafficsim.Uniform(len(tors), per)
		ae, err := trafficsim.ECMPThroughput(tp, m)
		if err == nil {
			fmt.Printf("  uniform-traffic alpha (ECMP): %.3f\n", ae)
		}
		ak, err := trafficsim.KSPThroughputCtx(ctx, tp, m, trafficsim.DefaultKSP())
		if err == nil {
			fmt.Printf("  uniform-traffic alpha (KSP-8): %.3f\n", ak)
		}
	}
}

// specJSON renders the generator parameters as canonical JSON for the
// emitted document's provenance block (informational only: a re-upload
// or reload never consults it).
func specJSON(p cli.TopoParams) string {
	b, err := json.Marshal(p)
	if err != nil {
		return ""
	}
	return string(b)
}
