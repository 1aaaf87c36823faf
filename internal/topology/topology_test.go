package topology

import (
	"context"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFatTreeSizing(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		ft, err := FatTree(FatTreeConfig{K: k, Rate: 100})
		if err != nil {
			t.Fatalf("FatTree(k=%d): %v", k, err)
		}
		wantSwitches := 5 * k * k / 4
		if got := ft.NumSwitches(); got != wantSwitches {
			t.Errorf("k=%d: switches = %d, want %d", k, got, wantSwitches)
		}
		if got, want := ft.Servers(), k*k*k/4; got != want {
			t.Errorf("k=%d: servers = %d, want %d", k, got, want)
		}
		wantLinks := k * k * k / 2 // k²/4 tor-agg per pod... total 2·(k/2)²·k / edges
		if got := ft.NumEdges(); got != wantLinks {
			t.Errorf("k=%d: links = %d, want %d", k, got, wantLinks)
		}
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	if _, err := FatTree(FatTreeConfig{K: 5, Rate: 100}); err == nil {
		t.Error("FatTree accepted odd K")
	}
	if _, err := FatTree(FatTreeConfig{K: 0, Rate: 100}); err == nil {
		t.Error("FatTree accepted K=0")
	}
}

func TestFatTreeDiameter(t *testing.T) {
	ft, err := FatTree(FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := must(ft.BasicStatsCtx(context.Background()))
	// ToR→agg→core→agg→ToR: 4 hops between pods.
	if st.ToRDiam != 4 {
		t.Errorf("fat-tree ToR diameter = %d, want 4", st.ToRDiam)
	}
}

func TestLeafSpine(t *testing.T) {
	ls, err := LeafSpine(LeafSpineConfig{
		Leaves: 8, Spines: 4, UplinksPerTor: 4,
		ServerPorts: 12, LeafRadix: 16, SpineRadix: 8, Rate: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.NumSwitches(); got != 12 {
		t.Errorf("switches = %d, want 12", got)
	}
	st := must(ls.BasicStatsCtx(context.Background()))
	if st.ToRDiam != 2 {
		t.Errorf("leaf-spine ToR diameter = %d, want 2", st.ToRDiam)
	}
	for _, s := range ls.SwitchesByRole(RoleSpine) {
		if d := ls.Degree(s); d != 8 {
			t.Errorf("spine %d degree = %d, want 8", s, d)
		}
	}
}

func TestLeafSpineOverSubscribedRadixFails(t *testing.T) {
	_, err := LeafSpine(LeafSpineConfig{
		Leaves: 8, Spines: 4, UplinksPerTor: 4,
		ServerPorts: 20, LeafRadix: 16, SpineRadix: 8, Rate: 100,
	})
	if err == nil {
		t.Error("leaf radix overflow not detected")
	}
}

func TestVL2Sizing(t *testing.T) {
	v, err := VL2(VL2Config{DA: 8, DI: 6, ServerPorts: 20, Rate: 10})
	if err != nil {
		t.Fatal(err)
	}
	// DI aggs, DA/2 intermediates, DA*DI/4 ToRs.
	if got := len(v.SwitchesByRole(RoleAgg)); got != 6 {
		t.Errorf("aggs = %d, want 6", got)
	}
	if got := len(v.SwitchesByRole(RoleIntermediate)); got != 4 {
		t.Errorf("intermediates = %d, want 4", got)
	}
	if got := len(v.ToRs()); got != 12 {
		t.Errorf("tors = %d, want 12", got)
	}
	for _, a := range v.SwitchesByRole(RoleAgg) {
		if d := v.Degree(a); d != 8 {
			t.Errorf("agg %d degree = %d, want DA=8", a, d)
		}
	}
}

func TestJellyfishRegularAndSimple(t *testing.T) {
	jf, err := Jellyfish(JellyfishConfig{N: 40, K: 12, R: 6, Rate: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !jf.IsRegular(6) {
		min, max := jf.MinMaxDegree()
		t.Errorf("jellyfish not 6-regular: degrees in [%d,%d]", min, max)
	}
	for u := 0; u < jf.N; u++ {
		for _, v := range jf.Neighbors(u) {
			if len(jf.EdgesBetween(u, v)) > 1 {
				t.Errorf("parallel edge between %d and %d", u, v)
			}
		}
		if jf.HasEdgeBetween(u, u) {
			t.Errorf("self-loop at %d", u)
		}
	}
	if got, want := jf.Servers(), 40*6; got != want {
		t.Errorf("servers = %d, want %d", got, want)
	}
}

func TestJellyfishQuickProperties(t *testing.T) {
	f := func(seed uint64) bool {
		n := 12 + int(seed%5)*2 // 12..20, even N·R below
		jf, err := Jellyfish(JellyfishConfig{N: n, K: 8, R: 4, Rate: 40, Seed: seed})
		if err != nil {
			return false
		}
		return jf.IsRegular(4) && jf.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestJellyfishRejectsBadParams(t *testing.T) {
	cases := []JellyfishConfig{
		{N: 10, K: 4, R: 4, Seed: 1}, // R == K
		{N: 3, K: 8, R: 4, Seed: 1},  // R >= N
		{N: 5, K: 8, R: 3, Seed: 1},  // odd N*R
	}
	for _, c := range cases {
		if _, err := Jellyfish(c); err == nil {
			t.Errorf("Jellyfish(%+v) accepted invalid params", c)
		}
	}
}

func TestFlatRandomRegularSimpleConnected(t *testing.T) {
	fr, err := FlatRandom(FlatRandomConfig{N: 500, K: 12, R: 6, Rate: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.IsRegular(6) {
		min, max := fr.MinMaxDegree()
		t.Errorf("flatrandom not 6-regular: degrees in [%d,%d]", min, max)
	}
	if !fr.Connected() {
		t.Error("flatrandom disconnected")
	}
	for u := 0; u < fr.N; u++ {
		for _, v := range fr.Neighbors(u) {
			if len(fr.EdgesBetween(u, v)) > 1 {
				t.Errorf("parallel edge between %d and %d", u, v)
			}
		}
		if fr.HasEdgeBetween(u, u) {
			t.Errorf("self-loop at %d", u)
		}
	}
	if got, want := fr.Servers(), 500*6; got != want {
		t.Errorf("servers = %d, want %d", got, want)
	}
}

// TestFlatRandomDeterministic: same (config, seed) must wire the same
// fabric — the property the E-scale golden tables rest on.
func TestFlatRandomDeterministic(t *testing.T) {
	cfg := FlatRandomConfig{N: 300, K: 16, R: 8, Rate: 100, Seed: 42}
	a, err := FlatRandom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FlatRandom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i].U != b.Edges[i].U || a.Edges[i].V != b.Edges[i].V {
			t.Fatalf("edge %d differs: (%d,%d) vs (%d,%d)",
				i, a.Edges[i].U, a.Edges[i].V, b.Edges[i].U, b.Edges[i].V)
		}
	}
}

func TestFlatRandomQuickProperties(t *testing.T) {
	f := func(seed uint64) bool {
		n := 12 + int(seed%5)*2 // 12..20, even N·R below
		fr, err := FlatRandom(FlatRandomConfig{N: n, K: 8, R: 4, Rate: 40, Seed: seed})
		if err != nil {
			return false
		}
		return fr.IsRegular(4) && fr.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFlatRandomRejectsBadParams(t *testing.T) {
	cases := []FlatRandomConfig{
		{N: 0, K: 4, R: 2, Seed: 1},   // N < 1
		{N: 10, K: 4, R: 1, Seed: 1},  // R < 2
		{N: 10, K: 4, R: 4, Seed: 1},  // R == K
		{N: 3, K: 8, R: 4, Seed: 1},   // R >= N
		{N: 5, K: 8, R: 3, Seed: 1},   // odd N*R
		{N: 10, K: 8, R: 4, Rate: -1}, // negative rate
	}
	for _, c := range cases {
		if _, err := FlatRandom(c); err == nil {
			t.Errorf("FlatRandom(%+v) accepted invalid params", c)
		}
	}
}

func TestXpanderStructure(t *testing.T) {
	x, err := Xpander(XpanderConfig{D: 6, Lift: 5, ServerPorts: 8, Rate: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := x.NumSwitches(), 7*5; got != want {
		t.Fatalf("switches = %d, want %d", got, want)
	}
	if !x.IsRegular(6) {
		t.Error("xpander not D-regular")
	}
	// No links within a meta-node.
	for _, e := range x.Edges {
		if e.U != -1 && x.Nodes[e.U].Pod == x.Nodes[e.V].Pod {
			t.Errorf("intra-meta-node link %d–%d in meta-node %d", e.U, e.V, x.Nodes[e.U].Pod)
		}
	}
	if !x.Connected() {
		t.Error("xpander disconnected")
	}
}

func TestXpanderAddToR(t *testing.T) {
	cfg := XpanderConfig{D: 6, Lift: 4, ServerPorts: 8, Rate: 100, Seed: 11}
	x, err := Xpander(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	newID, rewires, err := XpanderAddToR(x, cfg, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rewires) != 3 {
		t.Errorf("rewired = %d, want D/2 = 3", len(rewires))
	}
	// Each rewire names two distinct in-service switches outside meta-node
	// 2, none of them the new node, and no endpoint repeats: the splices of
	// one add are pairwise disjoint by construction.
	seen := map[int]bool{}
	for _, rw := range rewires {
		for _, sw := range [2]int{rw.A, rw.B} {
			if sw == newID {
				t.Errorf("rewire %+v touches the new node", rw)
			}
			if x.Nodes[sw].Pod == 2 {
				t.Errorf("rewire %+v touches meta-node 2", rw)
			}
			if seen[sw] {
				t.Errorf("switch %d appears in two rewires of one add", sw)
			}
			seen[sw] = true
		}
	}
	if d := x.Degree(newID); d != 6 {
		t.Errorf("new ToR degree = %d, want 6", d)
	}
	// Everyone else keeps degree D.
	for u := 0; u < x.N; u++ {
		if d := x.Degree(u); d != 6 {
			t.Errorf("node %d degree = %d after expansion, want 6", u, d)
		}
	}
	if err := x.Validate(); err != nil {
		t.Errorf("expanded xpander invalid: %v", err)
	}
}

func TestFlattenedButterfly(t *testing.T) {
	fb, err := FlattenedButterfly(FlattenedButterflyConfig{C: 4, Dims: 2, ServerPorts: 8, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := fb.NumSwitches(); got != 16 {
		t.Fatalf("switches = %d, want 16", got)
	}
	if !fb.IsRegular(2 * 3) {
		t.Error("flattened butterfly not Dims*(C-1)-regular")
	}
	st := must(fb.BasicStatsCtx(context.Background()))
	if st.ToRDiam != 2 {
		t.Errorf("2-D flattened butterfly diameter = %d, want 2 (= Dims)", st.ToRDiam)
	}
}

func TestSlimFlyMMS(t *testing.T) {
	sf, err := SlimFly(SlimFlyConfig{Q: 5, ServerPorts: 9, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sf.NumSwitches(), 2*5*5; got != want {
		t.Fatalf("routers = %d, want %d", got, want)
	}
	wantDeg := (3*5 - 1) / 2
	if !sf.IsRegular(wantDeg) {
		min, max := sf.MinMaxDegree()
		t.Errorf("slim fly degrees in [%d,%d], want uniform %d", min, max, wantDeg)
	}
	st := must(sf.BasicStatsCtx(context.Background()))
	if st.ToRDiam != 2 {
		t.Errorf("slim fly diameter = %d, want 2", st.ToRDiam)
	}
}

func TestSlimFlyQ13(t *testing.T) {
	sf, err := SlimFly(SlimFlyConfig{Q: 13, ServerPorts: 5, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := sf.NumSwitches(); got != 338 {
		t.Fatalf("routers = %d, want 338", got)
	}
	if !sf.IsRegular(19) {
		t.Error("q=13 slim fly not 19-regular")
	}
	if st := must(sf.BasicStatsCtx(context.Background())); st.ToRDiam != 2 {
		t.Errorf("q=13 diameter = %d, want 2", st.ToRDiam)
	}
}

func TestSlimFlyRejectsBadQ(t *testing.T) {
	for _, q := range []int{4, 7, 9, 15} { // composite, ≡3 mod 4, composite, composite
		if _, err := SlimFly(SlimFlyConfig{Q: q}); err == nil {
			t.Errorf("SlimFly accepted q=%d", q)
		}
	}
}

func TestFatClique(t *testing.T) {
	fc, err := FatClique(FatCliqueConfig{Ks: 4, Kb: 3, Kf: 3, ServerPorts: 8, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fc.NumSwitches(), 4*3*3; got != want {
		t.Fatalf("switches = %d, want %d", got, want)
	}
	wantDeg := 3 + 2 + 2
	if !fc.IsRegular(wantDeg) {
		min, max := fc.MinMaxDegree()
		t.Errorf("fatclique degrees in [%d,%d], want uniform %d", min, max, wantDeg)
	}
	if !fc.Connected() {
		t.Error("fatclique disconnected")
	}
}

func TestJupiterSpine(t *testing.T) {
	cfg := JupiterConfig{AggBlocks: 8, SpineBlocks: 4, TrunkWidth: 2, UplinksPer: 8,
		ServerPorts: 64, Rate: 400}
	j, err := JupiterSpine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.NumSwitches(); got != 12 {
		t.Fatalf("blocks = %d, want 12", got)
	}
	for _, a := range j.SwitchesByRole(RoleAgg) {
		if d := j.Degree(a); d != 8 {
			t.Errorf("agg block %d uses %d uplinks, want 8", a, d)
		}
	}
	// Trunks are parallel edges.
	aggs := j.SwitchesByRole(RoleAgg)
	spines := j.SwitchesByRole(RoleSpine)
	if got := len(j.EdgesBetween(aggs[0], spines[0])); got != 2 {
		t.Errorf("trunk width = %d, want 2", got)
	}
}

func TestJupiterSpineRejectsMismatchedUplinks(t *testing.T) {
	_, err := JupiterSpine(JupiterConfig{AggBlocks: 4, SpineBlocks: 4, TrunkWidth: 2, UplinksPer: 7})
	if err == nil {
		t.Error("mismatched UplinksPer accepted")
	}
}

func TestJupiterDirect(t *testing.T) {
	cfg := JupiterConfig{AggBlocks: 8, UplinksPer: 14, ServerPorts: 64, Rate: 400}
	j, err := JupiterDirect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 14 uplinks / 7 peers = exactly 2 per peer.
	for a := 0; a < 8; a++ {
		if d := j.Degree(a); d != 14 {
			t.Errorf("block %d degree = %d, want 14", a, d)
		}
	}
	if got := len(j.EdgesBetween(0, 1)); got != 2 {
		t.Errorf("pair width = %d, want 2", got)
	}
	// Direct-connect is one "block hop" everywhere.
	if st := must(j.AllPairsStatsCtx(context.Background(), nil)); st.Diameter != 1 {
		t.Errorf("direct-connect block diameter = %d, want 1", st.Diameter)
	}
}

func TestJupiterDirectUnevenUplinks(t *testing.T) {
	cfg := JupiterConfig{AggBlocks: 5, UplinksPer: 10, Rate: 400}
	j, err := JupiterDirect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 uplinks / 4 peers = 2 each + 2 leftover; no block may exceed 10.
	for a := 0; a < 5; a++ {
		if d := j.Degree(a); d > 10 {
			t.Errorf("block %d degree = %d exceeds uplink budget 10", a, d)
		}
	}
}

func TestExpanderBeatsClosOnPaperMetrics(t *testing.T) {
	// The §4.2 premise: at comparable size, expanders have shorter mean
	// paths than a fat-tree. k=8 fat-tree: 80 switches, 128 servers.
	ft, err := FatTree(FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Jellyfish with same ToR count (32) and same server ports (4 each).
	jf, err := Jellyfish(JellyfishConfig{N: 32, K: 8, R: 4, Rate: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fts, jfs := must(ft.BasicStatsCtx(context.Background())), must(jf.BasicStatsCtx(context.Background()))
	if jfs.ToRMean >= fts.ToRMean {
		t.Errorf("jellyfish mean hops %.2f not below fat-tree %.2f", jfs.ToRMean, fts.ToRMean)
	}
	if jf.NumSwitches() >= ft.NumSwitches() {
		t.Errorf("jellyfish uses %d switches, fat-tree %d — expander should use fewer",
			jf.NumSwitches(), ft.NumSwitches())
	}
}

func TestValidateCatchesRadixOverflow(t *testing.T) {
	tp := NewTopology("bad")
	a := tp.AddSwitch(Node{Radix: 1, Rate: 100})
	b := tp.AddSwitch(Node{Radix: 2, Rate: 100})
	tp.Link(a, b)
	tp.Link(a, b)
	if err := tp.Validate(); err == nil {
		t.Error("radix overflow not caught")
	}
}

func TestLinkUsesSlowerRate(t *testing.T) {
	tp := NewTopology("rates")
	a := tp.AddSwitch(Node{Radix: 4, Rate: 400})
	b := tp.AddSwitch(Node{Radix: 4, Rate: 100})
	id := tp.Link(a, b)
	if got := tp.Edges[id].Cap; got != 100 {
		t.Errorf("link rate = %v, want 100 (slower port)", got)
	}
}

func TestTransitMesh(t *testing.T) {
	cfg := TransitMeshConfig{
		OldBlocks: 4, NewBlocks: 3, TransitBlocks: 2,
		OldRate: 100, NewRate: 400,
		LinksWithinMesh: 2, LinksToTransit: 2, ServerPorts: 8,
	}
	tm, err := TransitMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.NumSwitches(); got != 9 {
		t.Fatalf("blocks = %d, want 9", got)
	}
	// No direct old↔new links: every old–new path crosses a transit.
	olds := []int{0, 1, 2, 3}
	news := []int{4, 5, 6}
	for _, o := range olds {
		for _, n := range news {
			if tm.HasEdgeBetween(o, n) {
				t.Errorf("direct old-new link %d–%d", o, n)
			}
		}
	}
	// Old→transit trunks run at the old rate; new→transit at the new.
	transits := tm.SwitchesByRole(RoleIntermediate)
	for _, id := range tm.EdgesBetween(olds[0], transits[0]) {
		if tm.Edges[id].Cap != 100 {
			t.Errorf("old-transit trunk at %v, want 100", tm.Edges[id].Cap)
		}
	}
	for _, id := range tm.EdgesBetween(news[0], transits[0]) {
		if tm.Edges[id].Cap != 400 {
			t.Errorf("new-transit trunk at %v, want 400", tm.Edges[id].Cap)
		}
	}
	// Cross-generation distance is exactly 2 (via transit).
	dist := tm.BFS(olds[0])
	for _, n := range news {
		if dist[n] != 2 {
			t.Errorf("old→new distance = %d, want 2", dist[n])
		}
	}
}

func TestTransitMeshValidation(t *testing.T) {
	if _, err := TransitMesh(TransitMeshConfig{OldBlocks: 1, NewBlocks: 1}); err == nil {
		t.Error("missing transit blocks accepted")
	}
	if _, err := TransitMesh(TransitMeshConfig{
		OldBlocks: 2, NewBlocks: 2, TransitBlocks: 1}); err == nil {
		t.Error("zero trunk widths accepted")
	}
}

func TestCrossGenPortCost(t *testing.T) {
	direct, transit := CrossGenPortCost(100, 400)
	if direct != 100 || transit != 400 {
		t.Errorf("port cost = %v/%v, want 100/400", direct, transit)
	}
}

// must unwraps a kernel result computed under context.Background(),
// which cannot cancel, so the error is structurally nil.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestSplice pins the splice primitive the incremental adds share: the
// broken link dies, its endpoints come back as the rewire record, and
// the two new links to u take the next two edge IDs, U end first.
func TestSplice(t *testing.T) {
	tp := NewTopology("splice")
	for i := 0; i < 3; i++ {
		tp.AddSwitch(Node{Role: RoleToR, Radix: 4, Rate: 100})
	}
	id := tp.Link(1, 2)
	rw := tp.Splice(0, id)
	if rw != (Rewire{A: 1, B: 2}) {
		t.Fatalf("rewire = %+v, want {1 2}", rw)
	}
	if tp.Live(id) || tp.HasEdgeBetween(1, 2) {
		t.Fatal("spliced link is still live")
	}
	for i, want := range [][2]int{{0, 1}, {0, 2}} {
		e := tp.Edges[id+1+i]
		if e.U != want[0] || e.V != want[1] {
			t.Fatalf("edge %d = %d–%d, want %d–%d", id+1+i, e.U, e.V, want[0], want[1])
		}
	}
}
