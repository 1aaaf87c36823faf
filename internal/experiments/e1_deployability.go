package experiments

import (
	"context"
	"fmt"

	"physdep/internal/core"
	"physdep/internal/floorplan"
	"physdep/internal/par"
	"physdep/internal/topology"
	"physdep/internal/trafficsim"
)

// e1Hall is the common floorplan every E1/E7 topology is deployed into:
// 8 rows × 20 slots = 160 racks.
func e1Hall() floorplan.Hall { return floorplan.DefaultHall(8, 20) }

// e1Topologies builds the comparison set at ~1000 servers each.
func e1Topologies() ([]*topology.Topology, error) {
	var out []*topology.Topology
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 16, Rate: 100})
	if err != nil {
		return nil, err
	}
	out = append(out, ft) // 320 switches, 1024 servers
	ls, err := topology.LeafSpine(topology.LeafSpineConfig{
		Leaves: 128, Spines: 16, UplinksPerTor: 8, ServerPorts: 8,
		LeafRadix: 16, SpineRadix: 64, Rate: 100})
	if err != nil {
		return nil, err
	}
	out = append(out, ls) // 144 switches, 1024 servers
	jf, err := topology.Jellyfish(topology.JellyfishConfig{
		N: 128, K: 16, R: 8, Rate: 100, Seed: 42})
	if err != nil {
		return nil, err
	}
	out = append(out, jf) // 128 switches, 1024 servers
	xp, err := topology.Xpander(topology.XpanderConfig{
		D: 8, Lift: 14, ServerPorts: 8, Rate: 100, Seed: 42})
	if err != nil {
		return nil, err
	}
	out = append(out, xp) // 126 switches, 1008 servers
	fb, err := topology.FlattenedButterfly(topology.FlattenedButterflyConfig{
		C: 11, Dims: 2, ServerPorts: 8, Rate: 100})
	if err != nil {
		return nil, err
	}
	out = append(out, fb) // 121 switches, 968 servers
	fc, err := topology.FatClique(topology.FatCliqueConfig{
		Ks: 4, Kb: 4, Kf: 8, ServerPorts: 8, Rate: 100})
	if err != nil {
		return nil, err
	}
	out = append(out, fc) // 128 switches, 1024 servers
	sf, err := topology.SlimFly(topology.SlimFlyConfig{Q: 5, ServerPorts: 20, Rate: 100})
	if err != nil {
		return nil, err
	}
	out = append(out, sf) // 50 routers, 1000 servers
	return out, nil
}

// E1Deployability deploys each topology family into the same hall at
// ~1000 servers and reports the full deployability scorecard side by
// side — the comparison the paper says traditional metrics never show.
func E1Deployability(ctx context.Context) (*Result, error) {
	topos, err := e1Topologies()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "E1",
		Title: "Deployability comparison at ~1000 servers on one hall",
		Paper: "§4.2: expanders outperform Clos on paper; physical-deployability concerns limit their practical attractiveness",
		Notes: "bundle% is the fraction of cables arriving in ≥4-cable prebuilt bundles; deploy_hrs is wall-clock with an 8-tech crew",
	}
	res.Lines = append(res.Lines, core.Header())
	// One full pipeline evaluation per topology, fanned out; rows land in
	// topology order regardless of which finishes first.
	rows, err := par.MapCtx(ctx, len(topos), func(i int) (string, error) {
		rep, err := core.EvaluateCtx(ctx, core.DefaultInput(topos[i], e1Hall()))
		if err != nil {
			return "", fmt.Errorf("%s: %w", topos[i].Name, err)
		}
		return rep.Row(), nil
	})
	if err != nil {
		return nil, err
	}
	res.Lines = append(res.Lines, rows...)
	return res, nil
}

// E7ThroughputVsDeploy pairs each E1 topology's throughput (uniform
// traffic at full server egress, KSP routing for the flat fabrics, ECMP
// for the trees) with its deployment cost — the paper's central tension
// as a scatter table.
func E7ThroughputVsDeploy(ctx context.Context) (*Result, error) {
	topos, err := e1Topologies()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "E7",
		Title: "Throughput won vs deployability paid",
		Paper: "§4.2: theoretical/simulated wins vs undeployed reality — what does the win cost physically?",
		Notes: "alpha = admissible fraction of full-rate uniform traffic; norm_tput = alpha×servers/switches (Gbps of served demand per switch at 100G egress per server)",
	}
	res.Lines = append(res.Lines,
		fmt.Sprintf("%-22s %7s %9s %9s %10s %12s %10s %8s",
			"topology", "routing", "alpha", "ideal", "norm_tput", "deploy_hrs", "labor_$", "bundle%"))
	// Each topology's deploy evaluation + throughput solve is independent;
	// fan them out and keep the rows in topology order.
	rows, err := par.MapCtx(ctx, len(topos), func(i int) (string, error) {
		tp := topos[i]
		rep, err := core.EvaluateCtx(ctx, core.DefaultInput(tp, e1Hall()))
		if err != nil {
			return "", fmt.Errorf("%s: %w", tp.Name, err)
		}
		tors := tp.ToRs()
		// Per-ToR egress = server ports × 100G.
		perToR := float64(tp.Nodes[tors[0]].ServerPorts) * 100
		m := trafficsim.Uniform(len(tors), perToR)
		routing := "ecmp"
		var alpha float64
		hierarchical := len(tp.SwitchesByRole(topology.RoleSpine)) > 0 ||
			len(tp.SwitchesByRole(topology.RoleCore)) > 0
		if hierarchical {
			alpha, err = trafficsim.ECMPThroughput(tp, m)
		} else {
			routing = "ksp"
			alpha, err = trafficsim.KSPThroughputCtx(ctx, tp, m, 12)
		}
		if err != nil {
			return "", fmt.Errorf("%s throughput: %w", tp.Name, err)
		}
		ideal, err := idealAlpha(ctx, tp, perToR)
		if err != nil {
			return "", err
		}
		norm := alpha * float64(tp.Servers()) * 100 / float64(tp.NumSwitches())
		return fmt.Sprintf("%-22s %7s %9.3f %9.3f %10.0f %12.1f %10.0f %8.1f",
			tp.Name, routing, alpha, ideal, norm, float64(rep.TimeToDeploy),
			float64(rep.LaborCost), 100*rep.Bundleability), nil
	})
	if err != nil {
		return nil, err
	}
	res.Lines = append(res.Lines, rows...)
	res.Notes += "; ideal = capacity/(demand×mean-hops) routing-independent bound — the alpha/ideal gap is the routing-maturity tax §4.2 also describes (8 years from Jellyfish to a deployable routing scheme)"
	return res, nil
}

// idealAlpha is the fluid upper bound on the admissible scale of uniform
// traffic: total directed link capacity divided by (total demand × mean
// ToR-to-ToR hop distance). No routing scheme can beat it.
func idealAlpha(ctx context.Context, tp *topology.Topology, perToR float64) (float64, error) {
	st, err := tp.AllPairsStatsCtx(ctx, tp.ToRs())
	if err != nil {
		return 0, err
	}
	if st.MeanHops == 0 {
		return 0, nil
	}
	capacity := 0.0
	for _, e := range tp.Edges {
		if e.U == -1 {
			continue
		}
		c := e.Cap
		if c == 0 {
			c = 1
		}
		capacity += 2 * c // full duplex
	}
	demand := perToR * float64(len(tp.ToRs()))
	return capacity / (demand * st.MeanHops), nil
}
