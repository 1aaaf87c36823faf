package physdep

import (
	"context"
	"math/rand/v2"
	"testing"

	"physdep/internal/cabling"
	"physdep/internal/core"
	"physdep/internal/costmodel"
	"physdep/internal/deploy"
	"physdep/internal/floorplan"
	"physdep/internal/lifecycle"
	"physdep/internal/placement"
	"physdep/internal/supply"
	"physdep/internal/topology"
	"physdep/internal/trafficsim"
	"physdep/internal/twin"
)

// Integration tests: flows that cross module boundaries in ways no
// single package's tests do.

// Full pipeline with annealing, then internal consistency checks between
// the cabling plan, deployment schedule, and twin.
func TestPipelineConsistency(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 6, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.Greedy(ft, f, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := placement.OptimizeRestartsCtx(context.Background(), p, 4000, 9, 1); err != nil {
		t.Fatal(err)
	}
	plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every topology edge has exactly one cable; every cable's route
	// endpoints match the placed switches.
	if len(plan.Cables) != ft.NumEdges() {
		t.Fatalf("cables %d != edges %d", len(plan.Cables), ft.NumEdges())
	}
	for _, c := range plan.Cables {
		e := ft.Edges[c.Demand.ID]
		fromOK := c.Route.From == p.LocOfSwitch(e.U) || c.Route.From == p.LocOfSwitch(e.V)
		toOK := c.Route.To == p.LocOfSwitch(e.U) || c.Route.To == p.LocOfSwitch(e.V)
		if !fromOK || !toOK {
			t.Fatalf("cable %d route %v–%v does not match switch locations", c.Demand.ID, c.Route.From, c.Route.To)
		}
	}
	m := costmodel.Default()
	dp := deploy.Build(p, plan, m, deploy.BuildOptions{Prebundle: true})
	sched, err := deploy.ExecuteCtx(context.Background(), dp, m, f, deploy.ExecOptions{Techs: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Connections != len(plan.Cables) {
		t.Errorf("schedule validated %d links, plan has %d cables", sched.Connections, len(plan.Cables))
	}
	model, err := twin.FromNetwork(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if vs := twin.CheckAll(model, twin.DefaultSchema(), twin.DefaultRules()); len(vs) != 0 {
		t.Errorf("annealed pipeline produced twin violations: %v", vs)
	}
	// The twin's cable entities carry the same total length as the plan.
	var twinLen float64
	for _, c := range model.EntitiesOfKind(twin.KindCable) {
		l, _ := c.Attr("length_m")
		twinLen += l
	}
	if diff := twinLen - float64(plan.Summarize().TotalLength); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("twin length %v != plan length %v", twinLen, plan.Summarize().TotalLength)
	}
}

// Expansion changes a live Jellyfish, and the re-evaluated deployability
// report stays valid (the fabric still validates, cabling still plans).
func TestExpandThenReevaluate(t *testing.T) {
	cfg := topology.JellyfishConfig{N: 30, K: 12, R: 6, Rate: 100, Seed: 8}
	jf, err := topology.Jellyfish(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := core.DefaultInput(jf, floorplan.DefaultHall(4, 12))
	before, err := core.EvaluateCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	step, err := lifecycle.ExpandJellyfish(jf, cfg, 3, randSrc(3))
	if err != nil {
		t.Fatal(err)
	}
	if step.AddedToRs != 3 {
		t.Fatalf("added %d", step.AddedToRs)
	}
	after, err := core.EvaluateCtx(context.Background(), in) // same Input, mutated topology
	if err != nil {
		t.Fatal(err)
	}
	if after.Abstract.Servers != before.Abstract.Servers+3*6 {
		t.Errorf("servers %d -> %d, want +18", before.Abstract.Servers, after.Abstract.Servers)
	}
	// Each rewire nets +1 cable (one broken live link, two terminations
	// on the new ToR); NewLinks counts only links on previously-free
	// ports, so it no longer includes the splice-created ones.
	if after.Cabling.Cables != before.Cabling.Cables+step.NewLinks+step.Rewired {
		t.Errorf("cables %d -> %d with %d new links %d rewired",
			before.Cabling.Cables, after.Cabling.Cables, step.NewLinks, step.Rewired)
	}
}

// Supply-chain stress on a fully placed fabric: losing a vendor keeps
// every demand feasible with a second source, and the twin stays clean
// with the replacement media.
func TestVendorLossEndToEnd(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 6, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.Greedy(ft, f, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cat := cabling.SecondSourceCatalog()
	imp, err := supply.AssessVendorLoss(f, cat, p.Demands(nil), "acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(imp.Infeasible) != 0 {
		t.Fatalf("vendor loss stranded %d demands despite second source", len(imp.Infeasible))
	}
	onlyBolt := func(s cabling.Spec) bool { return s.Vendor == "bolt" }
	plan, err := cabling.PlanCables(f, cat, p.Demands(nil), cabling.Options{Filter: onlyBolt})
	if err != nil {
		t.Fatal(err)
	}
	model, err := twin.FromNetwork(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if vs := twin.CheckAll(model, twin.DefaultSchema(), twin.DefaultRules()); len(vs) != 0 {
		t.Errorf("second-source build violates twin rules: %v", vs)
	}
}

// Throughput proxies agree on ordering: a fat-tree with full bisection
// admits at least as much uniform traffic as a halved-spine leaf-spine.
func TestThroughputOrderingAcrossTopologies(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := topology.LeafSpine(topology.LeafSpineConfig{
		Leaves: 32, Spines: 4, UplinksPerTor: 4, ServerPorts: 12,
		LeafRadix: 16, SpineRadix: 32, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Each fabric is offered its own full server egress: 4×100G per
	// fat-tree ToR, 12×100G per oversubscribed leaf.
	aft, err := trafficsim.ECMPThroughput(ft, trafficsim.Uniform(32, 400))
	if err != nil {
		t.Fatal(err)
	}
	als, err := trafficsim.ECMPThroughput(ls, trafficsim.Uniform(32, 1200))
	if err != nil {
		t.Fatal(err)
	}
	if aft < 1 {
		t.Errorf("full-bisection fat-tree alpha %v, want >= 1", aft)
	}
	if als >= 0.5 {
		t.Errorf("3:1 oversubscribed leaf-spine alpha %v, want well below 1", als)
	}
}

// Decom planning consumes the cabling plan's real bundle structure.
func TestDecomFromCablingPlan(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.Greedy(ft, f, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cabling.PlanCables(f, cabling.DefaultCatalog(), p.Demands(nil), cabling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Decommission pod 0: its ToRs' cables go out of service.
	dead := map[int]bool{}
	for _, sw := range ft.ToRs() {
		if ft.Nodes[sw].Pod == 0 {
			for _, id := range ft.IncidentEdges(sw) {
				dead[id] = true
			}
		}
	}
	var records []lifecycle.CableRecord
	for i, c := range plan.Cables {
		bundle := -1
		for bi, b := range plan.Bundles {
			for _, ci := range b.CableIdx {
				if ci == i {
					bundle = bi
				}
			}
		}
		records = append(records, lifecycle.CableRecord{
			ID: i, Bundle: bundle, InService: !dead[c.Demand.ID],
		})
	}
	if err := lifecycle.ValidateRecords(records); err != nil {
		t.Fatal(err)
	}
	dplan := lifecycle.PlanDecom(records)
	if len(dplan.RemovableCables) == 0 {
		t.Error("no cables removable after killing a pod")
	}
	// Safety: nothing removable is in service.
	inService := map[int]bool{}
	for _, r := range records {
		if r.InService {
			inService[r.ID] = true
		}
	}
	for _, id := range dplan.RemovableCables {
		if inService[id] {
			t.Errorf("decom plan removes live cable %d", id)
		}
	}
}

// randSrc returns a deterministic PRNG for integration fixtures.
func randSrc(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x17)) }
