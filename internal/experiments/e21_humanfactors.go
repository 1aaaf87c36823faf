package experiments

import (
	"context"
	"fmt"

	"physdep/internal/costmodel"
	"physdep/internal/deploy"
	"physdep/internal/floorplan"
	"physdep/internal/topology"
)

// E21HumanFactors quantifies §3.2: a rack is a physical workspace, and
// only so many people fit in front of it. Crew-size scaling hits a wall
// set by per-rack concurrency, not headcount — a constraint invisible to
// any abstract network model.
func E21HumanFactors(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E21",
		Title: "Crew scaling under per-rack workspace limits",
		Paper: "§3.2: real designs must consider safety and how many people at a time can work on one rack",
	}
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		return nil, err
	}
	m := costmodel.Default()
	p, plan, err := layout(ft, floorplan.DefaultHall(4, 12))
	if err != nil {
		return nil, err
	}
	dp := deploy.Build(p, plan, m, deploy.BuildOptions{Prebundle: true})
	res.Lines = append(res.Lines, fmt.Sprintf("%8s %16s %16s %16s",
		"techs", "unlimited_hrs", "cap2_hrs", "cap1_hrs"))
	type point struct{ unlimited, cap2, cap1 float64 }
	var prev point
	for _, techs := range []int{2, 4, 8, 16, 32} {
		var pt point
		for _, v := range []struct {
			cap int
			dst *float64
		}{{0, &pt.unlimited}, {2, &pt.cap2}, {1, &pt.cap1}} {
			s, err := deploy.ExecuteCtx(ctx, dp, m, p.Floor, deploy.ExecOptions{
				Techs: techs, Seed: 5, YieldOverride: 1, MaxWorkersPerRack: v.cap})
			if err != nil {
				return nil, err
			}
			*v.dst = float64(s.Makespan.Hours())
		}
		res.Lines = append(res.Lines, fmt.Sprintf("%8d %16.1f %16.1f %16.1f",
			techs, pt.unlimited, pt.cap2, pt.cap1))
		if pt.cap1 < pt.unlimited-1e-9 {
			return nil, fmt.Errorf("E21: cap-1 schedule faster than unlimited at %d techs", techs)
		}
		prev = pt
	}
	// Shape: at the largest crew, the cap must cost wall-clock.
	if prev.cap1 <= prev.unlimited {
		return nil, fmt.Errorf("E21: workspace cap never bound (cap1 %.2f vs unlimited %.2f)",
			prev.cap1, prev.unlimited)
	}
	res.Notes = "headcount scaling saturates once racks become the bottleneck: past that point more people just queue in the aisle — capacity the planner must spend across racks, not within one"
	return res, nil
}
