package core

import (
	"context"
	"strings"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/topology"
)

func evalFatTree(t *testing.T, k int) *Report {
	t.Helper()
	ft, err := topology.FatTree(topology.FatTreeConfig{K: k, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EvaluateCtx(context.Background(), DefaultInput(ft, floorplan.DefaultHall(4, 12)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEvaluateFatTree(t *testing.T) {
	rep := evalFatTree(t, 4)
	if rep.Abstract.Switches != 20 || rep.Abstract.Servers != 16 {
		t.Errorf("abstract stats wrong: %+v", rep.Abstract)
	}
	if rep.Cabling.Cables != 32 {
		t.Errorf("cables = %d, want 32", rep.Cabling.Cables)
	}
	if rep.TimeToDeploy <= 0 {
		t.Error("deploy time not positive")
	}
	if rep.TotalCapex <= rep.SwitchCapex {
		t.Error("total capex must exceed switch capex")
	}
	if rep.FirstPassYield <= 0.8 || rep.FirstPassYield > 1 {
		t.Errorf("yield = %v", rep.FirstPassYield)
	}
	if rep.TwinViolations != 0 || rep.OutOfEnvelope {
		t.Errorf("clean build reported violations: %+v", rep.TwinViolations)
	}
	if rep.DiversityRates != 1 || rep.DiversityRadixs != 1 {
		t.Errorf("uniform fat-tree diversity: %d rates %d radixes", rep.DiversityRates, rep.DiversityRadixs)
	}
	if rep.StrandedCost <= 0 {
		t.Error("no stranded cost computed")
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	a := evalFatTree(t, 4)
	b := evalFatTree(t, 4)
	if a.Row() != b.Row() {
		t.Errorf("same input, different reports:\n%s\n%s", a.Row(), b.Row())
	}
}

func TestEvaluateNilTopology(t *testing.T) {
	if _, err := EvaluateCtx(context.Background(), Input{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestEvaluateHallTooSmall(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	in := DefaultInput(ft, floorplan.DefaultHall(1, 4))
	if _, err := EvaluateCtx(context.Background(), in); err == nil {
		t.Error("undersized hall accepted")
	}
}

func TestEvaluateJellyfishLowBundleability(t *testing.T) {
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 32, K: 8, R: 4, Rate: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	jrep, err := EvaluateCtx(context.Background(), DefaultInput(jf, floorplan.DefaultHall(4, 12)))
	if err != nil {
		t.Fatal(err)
	}
	frep := evalFatTree(t, 8)
	// §4.2: Jellyfish's random links don't aggregate into rack-pair
	// bundles; the fat-tree's pod structure does.
	if jrep.Bundleability >= frep.Bundleability {
		t.Errorf("jellyfish bundleability %.2f not below fat-tree %.2f",
			jrep.Bundleability, frep.Bundleability)
	}
	// But jellyfish wins the abstract metrics at this scale.
	if jrep.Abstract.ToRMeanHops >= frep.Abstract.ToRMeanHops {
		t.Errorf("jellyfish mean hops %.2f not below fat-tree %.2f",
			jrep.Abstract.ToRMeanHops, frep.Abstract.ToRMeanHops)
	}
}

func TestEvaluatePlacementAnnealImproves(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 6, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultInput(ft, floorplan.DefaultHall(4, 16))
	plain, err := EvaluateCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.PlacementSteps = 6000
	tuned, err := EvaluateCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Cabling.TotalLength > plain.Cabling.TotalLength {
		t.Errorf("annealed placement lengthened cables: %v > %v",
			tuned.Cabling.TotalLength, plain.Cabling.TotalLength)
	}
}

func TestHeaderRowAlignment(t *testing.T) {
	rep := evalFatTree(t, 4)
	h, r := Header(), rep.Row()
	if !strings.HasPrefix(h, "topology") {
		t.Errorf("header = %q", h)
	}
	if len(strings.Fields(r)) != len(strings.Fields(h)) {
		t.Errorf("row fields %d != header fields %d\n%s\n%s",
			len(strings.Fields(r)), len(strings.Fields(h)), h, r)
	}
}

func TestEvaluateMixedRatesDiversity(t *testing.T) {
	// Hand-build a two-rate leaf-spine to exercise diversity counting.
	tp := topology.NewTopology("mixed")
	s1 := tp.AddSwitch(topology.Node{Role: topology.RoleSpine, Radix: 8, Rate: 400})
	s2 := tp.AddSwitch(topology.Node{Role: topology.RoleSpine, Radix: 8, Rate: 400})
	for i := 0; i < 4; i++ {
		l := tp.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: 16, Rate: 100, ServerPorts: 8})
		tp.Link(l, s1)
		tp.Link(l, s2)
	}
	rep, err := EvaluateCtx(context.Background(), DefaultInput(tp, floorplan.DefaultHall(3, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiversityRates != 2 || rep.DiversityRadixs != 2 {
		t.Errorf("diversity = %d rates %d radixes, want 2 and 2",
			rep.DiversityRates, rep.DiversityRadixs)
	}
	// Links run at the slower port rate: all cables are 100G.
	if rep.Cabling.Cables != 8 {
		t.Errorf("cables = %d, want 8", rep.Cabling.Cables)
	}
}
