// Command physdep evaluates the physical deployability of one topology:
// it generates the fabric, places it into a hall, plans every cable,
// prices the build, schedules a technician crew, and checks the digital
// twin — then prints the §5.4-style scorecard.
//
// Usage:
//
//	physdep -topo fattree -k 8
//	physdep -topo jellyfish -n 64 -radix 16 -net 8 -rows 4 -slots 24
//	physdep -topo xpander -d 8 -lift 6
//	physdep -topo leafspine -n 32 -spines 8
//	physdep -topo fatclique -d 4 -lift 4 -k 4
//	physdep -topo slimfly -q 5
//	physdep -topo-file fabric.json
//
// The hall follows cli.ResolveHall: -rows and -slots win, then a
// document's own hall, then the default.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"physdep/internal/cli"
	"physdep/internal/core"
	"physdep/internal/floorplan"
)

func main() {
	params := cli.RegisterTopoFlags(flag.CommandLine)
	var (
		rows    = flag.Int("rows", 0, fmt.Sprintf("hall rows (0 = the document's hall, else %d)", cli.DefaultRows))
		slots   = flag.Int("slots", 0, fmt.Sprintf("rack slots per row (0 = the document's hall, else %d)", cli.DefaultSlots))
		techs   = flag.Int("techs", 8, "deployment crew size")
		anneal  = flag.Int("anneal", 0, "placement annealing steps (0 = greedy only)")
		timeout = flag.Duration("timeout", 0, "cancel the evaluation after this long (0 = no deadline)")
	)
	flag.Parse()

	// ^C/SIGTERM cancel the evaluation gracefully (one-line diagnostic,
	// nonzero exit) instead of killing the process mid-print; a second
	// signal kills it the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	tp, docHall, err := cli.LoadTopology(ctx, *params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	in := core.DefaultInput(tp, floorplan.DefaultHall(cli.ResolveHall(*rows, *slots, docHall)))
	in.Techs = *techs
	in.PlacementSteps = *anneal
	in.Seed = params.Seed
	rep, err := core.EvaluateCtx(ctx, in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	printReport(rep)
}

func printReport(r *core.Report) {
	fmt.Printf("physical deployability report: %s\n\n", r.Name)
	fmt.Println("abstract network metrics (what papers report):")
	fmt.Printf("  switches %d, links %d, servers %d\n",
		r.Abstract.Switches, r.Abstract.Links, r.Abstract.Servers)
	fmt.Printf("  ToR diameter %d, mean hops %.2f, spectral gap %.3f, bisection %.0f Gbps\n\n",
		r.Abstract.ToRDiameter, r.Abstract.ToRMeanHops, r.Abstract.SpectralGap, r.Abstract.BisectionGb)
	fmt.Println("physical build (what this paper says to also report):")
	fmt.Printf("  cables: %d (%.0f m total, %.0f m max run, %.0f%% optical)\n",
		r.Cabling.Cables, float64(r.Cabling.TotalLength), float64(r.Cabling.MaxLength),
		100*r.Cabling.OpticalFrac)
	fmt.Printf("  bundleability: %.0f%% of cables in ≥4-cable prebuilt bundles\n", 100*r.Bundleability)
	fmt.Printf("  capex: $%.0f switches + $%.0f cabling = $%.0f\n",
		float64(r.SwitchCapex), float64(r.CableCapex), float64(r.TotalCapex))
	fmt.Printf("  tray peak utilization: %.0f%%\n\n", 100*r.TrayPeakUtil)
	fmt.Println("deployment execution:")
	fmt.Printf("  time to deploy: %.1f h wall-clock; labor $%.0f (%.0f%% walking)\n",
		float64(r.TimeToDeploy), float64(r.LaborCost), 100*r.WalkFraction)
	fmt.Printf("  first-pass yield: %.1f%% (%d reworks)\n", 100*r.FirstPassYield, r.Reworks)
	fmt.Printf("  stranded server capital during deploy: $%.0f\n\n", float64(r.StrandedCost))
	fmt.Println("digital-twin verdict:")
	fmt.Printf("  violations: %d; out-of-envelope: %v\n", r.TwinViolations, r.OutOfEnvelope)
	fmt.Printf("  diversity absorbed: %d line rates, %d radixes\n", r.DiversityRates, r.DiversityRadixs)
}
