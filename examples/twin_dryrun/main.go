// The §5.3 digital-twin workflow: before touching the floor, replay a
// planned change against the twin. The plan below hides two mistakes —
// a tray that will overflow and a conjoined rack that won't fit through
// the door. The dry run catches both at the design stage and prices
// what catching them later would have cost.
//
//	go run ./examples/twin_dryrun
package main

import (
	"fmt"
	"log"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/placement"
	"physdep/internal/topology"
	"physdep/internal/twin"
)

func main() {
	// Start from a healthy deployed network.
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		log.Fatal(err)
	}
	floor, err := floorplan.NewFloorplan(floorplan.DefaultHall(3, 10))
	if err != nil {
		log.Fatal(err)
	}
	place, err := placement.Greedy(ft, floor, placement.Config{})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := cabling.PlanCables(floor, cabling.DefaultCatalog(), place.Demands(nil), cabling.Options{})
	if err != nil {
		log.Fatal(err)
	}
	model, err := twin.FromNetwork(place, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("twin built: %d entities, %d relations, 0 violations\n\n",
		model.NumEntities(), len(model.Relations()))

	// The proposed change: record the as-built survey finding that the
	// tray over row 0 is the shallow profile, add a pre-cabled conjoined
	// two-rack unit, and trunk 200 thick 400G DACs through that shallow
	// segment. Two physical mistakes hide inside.
	rack := &twin.Entity{ID: "rack-new", Kind: twin.KindRack}
	rack.SetAttr("ru_capacity", 42)
	rack.SetAttr("plenum_mm2", 60000)
	rack.SetAttr("width_m", 0.6)
	rack.SetAttr("unit_width_m", 1.2) // pre-cabled double-wide!
	trunk := &twin.Entity{ID: "trunk-new", Kind: twin.KindBundle}
	trunk.SetAttr("cross_section_mm2", 200*95.0*1.2) // 200×400G DAC
	ops := []twin.Op{
		{Kind: twin.OpSetAttr, ID: "tray-0", Attr: "capacity_mm2", Value: 20000}, // shallow profile
		{Kind: twin.OpAdd, Entity: rack},
		{Kind: twin.OpRelate, From: "hall", Verb: twin.VerbContains, To: "rack-new"},
		{Kind: twin.OpAdd, Entity: trunk},
		{Kind: twin.OpRelate, From: "trunk-new", Verb: twin.VerbRoutesThrough, To: "tray-0"},
	}
	res, err := twin.DryRun(model, twin.DefaultSchema(), twin.DefaultRules(), ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dry run of the change plan:")
	for i, vs := range res.ViolationsAfterStep {
		status := "ok"
		if len(vs) > 0 {
			status = fmt.Sprintf("%d violation(s)", len(vs))
		}
		fmt.Printf("  step %d: %s\n", i, status)
		for _, v := range vs {
			fmt.Printf("         %s\n", v)
		}
	}
	fmt.Printf("\nfirst bad step: %d\n", res.FirstBadStep)

	// What did catching these at design time save?
	sav := twin.Savings(res.Final, 800, twin.StageInstall)
	fmt.Printf("\nremediation economics (base fix $800/violation):\n")
	fmt.Printf("  caught on the twin (design stage): $%.0f\n", float64(sav.TwinCost))
	fmt.Printf("  caught mid-install on the floor:  $%.0f (%.0f×)\n",
		float64(sav.NoTwinCost), sav.SavingsRatio)
	fmt.Println("\nper the paper: \"almost all of these could have been averted if we could")
	fmt.Println("do multi-layer digital-twin dry runs.\"")
}
