package core

import (
	"context"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/topology"
)

// TestEvaluateEmitsPhaseSpans: with collection on, one evaluation must
// produce a root span carrying the placement/cabling/deploy/twin phase
// children, with twin.build and twin.check under twin — the breakdown
// cmd/experiments -manifest promises.
func TestEvaluateEmitsPhaseSpans(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()

	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateCtx(context.Background(), DefaultInput(ft, floorplan.DefaultHall(2, 8))); err != nil {
		t.Fatal(err)
	}

	snap := obs.TakeSnapshot()
	var root *obs.SpanData
	for _, sp := range snap.Spans {
		if sp.Name == "evaluate:"+ft.Name {
			root = sp
		}
	}
	if root == nil {
		t.Fatalf("no evaluate span; roots = %v", spanNames(snap.Spans))
	}
	got := map[string]bool{}
	for _, c := range root.Children {
		got[c.Name] = true
	}
	for _, phase := range []string{"placement", "cabling", "deploy", "twin", "abstract"} {
		if !got[phase] {
			t.Errorf("evaluate span missing %q child; have %v", phase, spanNames(root.Children))
		}
	}
	for _, c := range root.Children {
		if c.DurNS < 0 || c.DurNS > root.DurNS {
			t.Errorf("child %s dur %dns outside parent dur %dns", c.Name, c.DurNS, root.DurNS)
		}
	}
	// The twin phase splits into its build and its check, and the build
	// records the model's size.
	var twinSpan *obs.SpanData
	for _, c := range root.Children {
		if c.Name == "twin" {
			twinSpan = c
		}
	}
	if twinSpan == nil {
		t.Fatal("no twin span")
	}
	if got := spanNames(twinSpan.Children); len(got) != 2 || got[0] != "twin.build" || got[1] != "twin.check" {
		t.Fatalf("twin span children = %v, want [twin.build twin.check]", got)
	}
	build := twinSpan.Children[0]
	if build.Attrs["entities"] <= 0 || build.Attrs["relations"] <= 0 {
		t.Errorf("twin.build attrs = %v, want positive entities and relations", build.Attrs)
	}
	for _, c := range twinSpan.Children {
		if c.DurNS < 0 || c.DurNS > twinSpan.DurNS {
			t.Errorf("child %s dur %dns outside twin dur %dns", c.Name, c.DurNS, twinSpan.DurNS)
		}
	}
	// The kernels under Evaluate must have reported through their own
	// counters too.
	for _, counter := range []string{"cabling.plan.cables", "deploy.tasks", "graph.allpairs.calls"} {
		if snap.Counters[counter] == 0 {
			t.Errorf("counter %s = 0 after a full evaluation", counter)
		}
	}
}

// TestEvaluateOutputIdenticalWithObs is the side-channel contract at the
// evaluator level: the report must not change when collection is on.
func TestEvaluateOutputIdenticalWithObs(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	in := DefaultInput(ft, floorplan.DefaultHall(2, 8))
	in.PlacementSteps = 500
	in.PlacementRestarts = 2

	obs.Disable()
	off, err := EvaluateCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	obs.Reset()
	obs.Enable()
	on, err := EvaluateCtx(context.Background(), in)
	obs.Disable()
	obs.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if off.Row() != on.Row() {
		t.Errorf("report row changed with collection on:\n  off: %s\n  on:  %s", off.Row(), on.Row())
	}
}

func spanNames(spans []*obs.SpanData) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}
