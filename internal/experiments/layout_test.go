package experiments

import (
	"context"
	"reflect"
	"testing"

	"physdep/internal/costmodel"
	"physdep/internal/deploy"
	"physdep/internal/floorplan"
	"physdep/internal/topology"
	"physdep/internal/twin"
)

// TestLayoutReuseIsReadOnly is what E8, E14, E18 and E21 rest on when
// they lay a fabric out once and reuse it: building and mutating twins,
// building deploy plans in both bundling modes and executing them leave
// the placement (rack and slot assignment, floor occupancy) and the cable
// plan exactly as they were. The copy taken before is a second layout of
// the same fabric, required equal to the first before anything reads it.
func TestLayoutReuseIsReadOnly(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	hall := floorplan.DefaultHall(4, 12)
	p, plan, err := layout(ft, hall)
	if err != nil {
		t.Fatal(err)
	}
	p0, plan0, err := layout(ft, hall)
	if err != nil {
		t.Fatal(err)
	}
	same := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(p.SlotOfRack, p0.SlotOfRack) || !reflect.DeepEqual(p.RackOfSwitch, p0.RackOfSwitch) {
			t.Fatalf("%s: rack or slot assignment differs", when)
		}
		if !reflect.DeepEqual(p.Floor, p0.Floor) {
			t.Fatalf("%s: floor occupancy differs", when)
		}
		if !reflect.DeepEqual(p, p0) {
			t.Fatalf("%s: placement differs", when)
		}
		if !reflect.DeepEqual(plan, plan0) {
			t.Fatalf("%s: cable plan differs", when)
		}
	}
	same("before use")
	for i := 0; i < 2; i++ {
		tw, err := twin.FromNetwork(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		// E14's kinds of mutation, which must touch the twin alone.
		tw.EntitiesOfKind(twin.KindTray)[i].SetAttr("capacity_mm2", 0.5)
		tw.EntitiesOfKind(twin.KindRack)[i].SetAttr("unit_width_m", 1.4)
		if err := tw.Relate("switch-0", twin.VerbFeeds, "switch-1"); err != nil {
			t.Fatal(err)
		}
	}
	m := costmodel.Default()
	for _, pre := range []bool{true, false} {
		dp := deploy.Build(p, plan, m, deploy.BuildOptions{Prebundle: pre})
		if _, err := deploy.ExecuteCtx(context.Background(), dp, m, p.Floor, deploy.ExecOptions{Techs: 8, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	same("after twins, builds and executions")
}
