package experiments

import (
	"context"
	"fmt"

	"physdep/internal/costmodel"
	"physdep/internal/lifecycle"
	"physdep/internal/topology"
	"physdep/internal/trafficsim"
	"physdep/internal/units"
	"physdep/internal/workload"
)

// E19FailureDegradation measures throughput under concurrent link
// failures for a fat-tree and a Jellyfish at matched size — §3.3's
// "mitigation techniques generally cannot tolerate large numbers of
// concurrent failures", with the expander's path diversity on display.
func E19FailureDegradation(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E19",
		Title: "Throughput under concurrent link failures",
		Paper: "§3.3: data planes route around failures, but mitigation cannot tolerate large numbers of concurrent failures; availability then hangs on MTTR",
	}
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		return nil, err
	}
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 80, K: 8, R: 6, Rate: 100, Seed: 6})
	if err != nil {
		return nil, err
	}
	fracs := []float64{0, 0.02, 0.05, 0.10, 0.20}
	res.Lines = append(res.Lines, fmt.Sprintf("%10s | %12s %10s | %12s %10s",
		"fail_frac", "fattree_a", "retained", "jelly_a", "retained"))
	fpts, err := trafficsim.FailureDegradationCtx(ctx, ft, trafficsim.Uniform(32, 400), fracs, 5, false, 7)
	if err != nil {
		return nil, err
	}
	jpts, err := trafficsim.FailureDegradationCtx(ctx, jf, trafficsim.Uniform(80, 200), fracs, 5, true, 7)
	if err != nil {
		return nil, err
	}
	for i := range fracs {
		fr, jr := 0.0, 0.0
		if fpts[0].MeanAlpha > 0 {
			fr = fpts[i].MeanAlpha / fpts[0].MeanAlpha
		}
		if jpts[0].MeanAlpha > 0 {
			jr = jpts[i].MeanAlpha / jpts[0].MeanAlpha
		}
		res.Lines = append(res.Lines, fmt.Sprintf("%9.0f%% | %12.3f %9.0f%% | %12.3f %9.0f%%",
			100*fracs[i], fpts[i].MeanAlpha, 100*fr, jpts[i].MeanAlpha, 100*jr))
		if i > 0 && (fpts[i].MeanAlpha > fpts[i-1].MeanAlpha+1e-9 ||
			jpts[i].MeanAlpha > jpts[i-1].MeanAlpha+1e-9) {
			return nil, fmt.Errorf("E19: throughput rose under more failures")
		}
	}
	res.Notes = "both degrade; the expander's retained fraction at high failure counts is its real resilience story — and the reason MTTR (E6, E17) sets the availability floor either way"
	return res, nil
}

// E20DayOneVsLifetime prices the §5.4 tradeoff: "a hard-to-evolve design
// might be sufficiently cheaper up-front to merit its use." Three
// strategies serve the same 4-year demand growth; cumulative cost
// (capex + expansion labor) is tracked year by year.
func E20DayOneVsLifetime(ctx context.Context) (*Result, error) {
	res := &Result{
		ID:    "E20",
		Title: "Day-1 cost vs lifetime cost under demand growth",
		Paper: "§5.4: we need to represent the tradeoff between day-1 costs and longer-term costs, since a hard-to-evolve design might be sufficiently cheaper up-front to merit its use",
	}
	m := costmodel.Default()
	// Demand: 16 agg blocks now, growing ~50%/year for 4 years (clean
	// trajectory so the comparison isolates design, not forecasting).
	g := workload.GrowthModel{Start: 16, MonthlyRate: 0.035, Noise: 0, Seed: 1}
	tr := g.Trajectory(48)
	blocksAt := func(month int) int { return int(tr[month] + 0.5) }
	const uplinks, panelPorts = 32, 64
	blockSwitch, err := m.SwitchCapex(topology.Node{Radix: 128, Rate: 100})
	if err != nil {
		return nil, err
	}
	blockCapex := float64(blockSwitch) * 8 // 8 switches/block

	type strategy struct {
		name string
		// cost returns cumulative cost at each year 0..4.
		cost func() ([]float64, error)
	}
	years := []int{0, 12, 24, 36, 48}
	strategies := []strategy{
		{"bigbang-day1", func() ([]float64, error) {
			// Buy the year-4 network on day 1: no expansion labor ever.
			final := blocksAt(48)
			day1 := float64(final)*blockCapex + float64(m.PanelsFor(final*uplinks))*float64(m.PanelCost)
			out := make([]float64, len(years))
			for i := range out {
				out[i] = day1
			}
			return out, nil
		}},
		{"clos+panels", func() ([]float64, error) {
			// Grow through the panel layer: pay blocks as needed plus
			// jumper labor per expansion.
			cf, err := lifecycle.NewClosFabric(blocksAt(0), 8, uplinks, panelPorts)
			if err != nil {
				return nil, err
			}
			if _, err := cf.Rewire(lifecycle.UniformDemand(blocksAt(0), 8, uplinks)); err != nil {
				return nil, err
			}
			cum := float64(blocksAt(0))*blockCapex +
				float64(m.PanelsFor(blocksAt(0)*uplinks))*float64(m.PanelCost)
			out := []float64{cum}
			for _, mo := range years[1:] {
				add := blocksAt(mo) - cf.Aggs
				if add > 0 {
					rep, err := cf.ExpandAggs(add, uplinks, panelPorts)
					if err != nil {
						return nil, err
					}
					cum += float64(add)*blockCapex +
						float64(m.PanelsFor(add*uplinks))*float64(m.PanelCost) +
						float64(m.LaborCost(rep.LaborMinutes(m.JumperMove)))
				}
				out = append(out, cum)
			}
			return out, nil
		}},
		{"expander-rewire", func() ([]float64, error) {
			// Grow an expander: cheaper gear (no panels), but each added
			// block rewires uplinks/2 live links at floor-work rates.
			cum := float64(blocksAt(0)) * blockCapex
			out := []float64{cum}
			prev := blocksAt(0)
			perRewire := units.Minutes(float64(m.JumperMove)*6 + float64(m.PullCableFixed))
			for _, mo := range years[1:] {
				add := blocksAt(mo) - prev
				if add > 0 {
					rewires := add * uplinks / 2
					cum += float64(add)*blockCapex +
						float64(m.LaborCost(units.Minutes(float64(perRewire)*float64(rewires))))
					prev += add
				}
				out = append(out, cum)
			}
			return out, nil
		}},
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-18s %12s %12s %12s %12s %12s",
		"strategy", "year0_$", "year1_$", "year2_$", "year3_$", "year4_$"))
	var day1 []float64
	for _, s := range strategies {
		c, err := s.cost()
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", s.name, err)
		}
		day1 = append(day1, c[0])
		res.Lines = append(res.Lines, fmt.Sprintf("%-18s %12.0f %12.0f %12.0f %12.0f %12.0f",
			s.name, c[0], c[1], c[2], c[3], c[4]))
	}
	// Shape: big-bang is the most expensive on day 1, incremental the
	// cheapest — the crossover the paper wants represented.
	if !(day1[0] > day1[1] && day1[1] >= day1[2]) {
		return nil, fmt.Errorf("E20: day-1 ordering wrong: %v", day1)
	}
	res.Notes = "incremental strategies defer ~80% of day-1 capital; the panel layer's labor premium over the expander's floor rewires stays small while its risk profile (E3/E5: zero live-link touches) is far better"
	return res, nil
}
