// Quickstart: evaluate the physical deployability of a small fat-tree.
//
// This is the smallest end-to-end use of the library: build a topology,
// pick a hall, run the evaluator, read the scorecard.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"physdep/internal/core"
	"physdep/internal/floorplan"
	"physdep/internal/topology"
)

func main() {
	// A k=8 fat-tree: 80 radix-8 switches, 128 servers.
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		log.Fatal(err)
	}

	// A hall with 4 rows of 12 rack slots, default tray/plenum/door
	// geometry; default media catalog and cost book; 8 technicians.
	in := core.DefaultInput(ft, floorplan.DefaultHall(4, 12))

	rep, err := core.EvaluateCtx(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on a 4x12 hall\n\n", rep.Name)
	fmt.Printf("the numbers papers report:\n")
	fmt.Printf("  %d switches, %d links, %d servers, diameter %d, mean ToR hops %.2f\n\n",
		rep.Abstract.Switches, rep.Abstract.Links, rep.Abstract.Servers,
		rep.Abstract.ToRDiameter, rep.Abstract.ToRMeanHops)
	fmt.Printf("the numbers this paper says to also report:\n")
	fmt.Printf("  %d cables totalling %.0f m (%.0f%% optical), %.0f%% bundleable\n",
		rep.Cabling.Cables, float64(rep.Cabling.TotalLength),
		100*rep.Cabling.OpticalFrac, 100*rep.Bundleability)
	fmt.Printf("  capex $%.0f; deploys in %.1f h wall-clock with labor $%.0f\n",
		float64(rep.TotalCapex), float64(rep.TimeToDeploy), float64(rep.LaborCost))
	fmt.Printf("  first-pass yield %.1f%%, %d reworks, tray peak %.0f%%\n",
		100*rep.FirstPassYield, rep.Reworks, 100*rep.TrayPeakUtil)
	fmt.Printf("  twin violations: %d (out of envelope: %v)\n",
		rep.TwinViolations, rep.OutOfEnvelope)
}
