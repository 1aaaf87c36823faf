// The §4.3 case study: redesigning a live network. Convert a Jupiter
// from fat-tree (agg blocks → spine blocks via OCS) to direct-connect
// (agg blocks meshed via OCS), rack by rack, without an outage — then
// explore how crew size and drain limits trade wall-clock against
// capacity-at-risk, and what a software-reconfigurable OCS layer would
// have saved.
//
//	go run ./examples/jupiter_conversion
package main

import (
	"context"
	"fmt"
	"log"

	"physdep/internal/lifecycle"
	"physdep/internal/topology"
)

func main() {
	// The logical before/after: same uplinks, spine blocks vs full mesh.
	before, err := topology.JupiterSpine(topology.JupiterConfig{
		AggBlocks: 32, SpineBlocks: 16, TrunkWidth: 16, UplinksPer: 256,
		ServerPorts: 512, Rate: 400})
	if err != nil {
		log.Fatal(err)
	}
	after, err := topology.JupiterDirect(topology.JupiterConfig{
		AggBlocks: 32, UplinksPer: 256, ServerPorts: 512, Rate: 400})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	bs, err := before.AllPairsStatsCtx(ctx, before.SwitchesByRole(topology.RoleAgg))
	if err != nil {
		log.Fatal(err)
	}
	as, err := after.AllPairsStatsCtx(ctx, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("logical change:")
	fmt.Printf("  before: %d blocks (%d spine), agg-to-agg %d block hops\n",
		before.NumSwitches(), 16, bs.Diameter)
	fmt.Printf("  after:  %d blocks (0 spine),  agg-to-agg %d block hop — spine capex eliminated\n\n",
		after.NumSwitches(), as.Diameter)

	cfg := lifecycle.DefaultConversionConfig()
	cfg.AggBlocks, cfg.SpineBlocks, cfg.UplinksPer = 32, 16, 256

	fmt.Println("the physical work, per §4.3 (drain rack → move fibers → un-drain):")
	fmt.Printf("  %-22s %6s %10s %10s %11s %10s %10s\n",
		"plan", "crews", "drain_cap", "hrs/rack", "labor_hrs", "wall_hrs", "peak_loss")
	show := func(name string, c lifecycle.ConversionConfig) {
		rep, err := lifecycle.PlanConversion(c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s %6d %9.0f%% %10.1f %11.1f %10.1f %9.0f%%\n",
			name, c.Crews, 100*c.MaxConcurrentDrainFrac,
			float64(rep.PerRackMinutes.Hours()), float64(rep.LaborMinutes.Hours()),
			float64(rep.Makespan.Hours()), 100*rep.PeakCapacityLoss)
	}
	show("baseline", cfg)
	fast := cfg
	fast.Crews = 8
	fast.MaxConcurrentDrainFrac = 0.5
	show("aggressive", fast)
	careful := cfg
	careful.Crews = 2
	careful.MaxConcurrentDrainFrac = 0.125
	show("conservative", careful)

	soft, err := lifecycle.OCSConversion(cfg, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nif the OCS layer were software-reconfigurable (§5.1): %.1f labor-hours total\n",
		float64(soft.LaborMinutes.Hours()))
	fmt.Println("lesson (paper): indirection made the live redesign possible; the SDN control")
	fmt.Println("plane coordinates drains so each rack's window is the only capacity at risk.")
}
