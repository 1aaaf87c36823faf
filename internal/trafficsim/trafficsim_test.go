package trafficsim

import (
	"context"
	"math"
	"testing"

	"physdep/internal/topology"
)

func TestUniformMatrix(t *testing.T) {
	m := Uniform(4, 90)
	for i := 0; i < 4; i++ {
		if m.D[i][i] != 0 {
			t.Errorf("self demand at %d", i)
		}
		row := 0.0
		for j := 0; j < 4; j++ {
			row += m.D[i][j]
		}
		if math.Abs(row-90) > 1e-9 {
			t.Errorf("row %d egress = %v, want 90", i, row)
		}
	}
}

func TestECMPThroughputLeafSpine(t *testing.T) {
	// 4 leaves × 2 spines, 2 uplinks per leaf (one per spine), 100G.
	// Uniform matrix with 100G egress per leaf: each leaf has 200G up,
	// traffic up = 100G → uplink load 50G per link; down the same.
	// α should be 2 (uplinks half loaded).
	ls, err := topology.LeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, UplinksPerTor: 2,
		ServerPorts: 10, LeafRadix: 12, SpineRadix: 4, Rate: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(4, 100)
	alpha, err := ECMPThroughput(ls, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-2) > 1e-9 {
		t.Errorf("alpha = %v, want 2", alpha)
	}
}

func TestECMPThroughputFatTreeFullBisection(t *testing.T) {
	// A k=4 fat-tree supports full bisection: uniform traffic at full
	// server line rate (2 servers/ToR × 100G = 200G... ToR has k/2 = 2
	// server ports) should fit: α ≥ 1.
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := len(ft.ToRs())
	m := Uniform(n, 2*100) // full server egress per ToR
	alpha, err := ECMPThroughput(ft, m)
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 1-1e-9 {
		t.Errorf("fat-tree alpha = %v, want >= 1 (full bisection)", alpha)
	}
}

func TestECMPThroughputScalesLinearly(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := len(ft.ToRs())
	a1, err := ECMPThroughput(ft, Uniform(n, 100))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ECMPThroughput(ft, Uniform(n, 200))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1-2*a2) > 1e-9 {
		t.Errorf("alpha not inversely linear in demand: %v vs %v", a1, a2)
	}
}

func TestECMPThroughputMatrixSizeMismatch(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ECMPThroughput(ft, Uniform(3, 100)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestKSPFindsPathsAndBeatsECMPOnExpanders(t *testing.T) {
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 40, K: 10, R: 5, Rate: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(len(jf.ToRs()), 300)
	ae, err := ECMPThroughput(jf, m)
	if err != nil {
		t.Fatal(err)
	}
	ak, err := KSPThroughputCtx(context.Background(), jf, m, JellyfishK)
	if err != nil {
		t.Fatal(err)
	}
	if ak <= ae {
		t.Errorf("KSP throughput %v not above ECMP %v on a random graph", ak, ae)
	}
}

func TestKSPEqualsECMPOnUniquePathGraphs(t *testing.T) {
	// Leaf-spine with one uplink per spine: KSP finds the same spine
	// paths ECMP uses, since the fabric is bipartite and its one hop of
	// slack admits no extra leaf-to-leaf path; throughputs must agree.
	ls, err := topology.LeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, UplinksPerTor: 2,
		ServerPorts: 10, LeafRadix: 12, SpineRadix: 4, Rate: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(4, 100)
	ae, err := ECMPThroughput(ls, m)
	if err != nil {
		t.Fatal(err)
	}
	ak, err := KSPThroughputCtx(context.Background(), ls, m, JellyfishK)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ae-ak) > 1e-9 {
		t.Errorf("ECMP %v != KSP %v on unique-path fabric", ae, ak)
	}
}

func TestKSPValidation(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := KSPThroughputCtx(context.Background(), ft, Uniform(2, 1), JellyfishK); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := KSPThroughputCtx(context.Background(), ft, Uniform(len(ft.ToRs()), 1), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestExpanderBeatsFatTreeAtEqualEquipment(t *testing.T) {
	// §4.2's premise at equal equipment — the Jellyfish paper's "~25%
	// more servers at full throughput with the same switches": a k=8
	// fat-tree uses 80 radix-8 switches to serve 128 servers at full
	// throughput. A Jellyfish on the same 80 switches with R=6 network
	// ports serves 160 servers (2 per ToR). Under KSP routing, total
	// carried server traffic should beat the fat-tree's.
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 80, K: 8, R: 6, Rate: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	af, err := ECMPThroughput(ft, Uniform(len(ft.ToRs()), 400)) // 4 servers × 100G
	if err != nil {
		t.Fatal(err)
	}
	aj, err := KSPThroughputCtx(context.Background(), jf, Uniform(80, 200), JellyfishK) // 2 servers × 100G
	if err != nil {
		t.Fatal(err)
	}
	ftCarried := math.Min(af, 1) * 128 * 100
	jfCarried := math.Min(aj, 1) * 160 * 100
	if jfCarried <= ftCarried {
		t.Errorf("jellyfish carries %v Gbps vs fat-tree %v at equal equipment (af=%v aj=%v)",
			jfCarried, ftCarried, af, aj)
	}
}

func TestFailureDegradationMonotone(t *testing.T) {
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 32, K: 12, R: 6, Rate: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(32, 300)
	pts, err := FailureDegradationCtx(context.Background(), jf, m, []float64{0, 0.05, 0.15}, 3, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].MeanAlpha <= 0 {
		t.Fatal("baseline alpha not positive")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MeanAlpha > pts[i-1].MeanAlpha+1e-9 {
			t.Errorf("alpha rose with more failures: %v -> %v",
				pts[i-1].MeanAlpha, pts[i].MeanAlpha)
		}
	}
	// Original topology untouched.
	if jf.NumEdges() != 32*6/2 {
		t.Errorf("degradation mutated the original: %d edges", jf.NumEdges())
	}
}

func TestFailureDegradationValidation(t *testing.T) {
	jf, err := topology.Jellyfish(topology.JellyfishConfig{N: 12, K: 8, R: 4, Rate: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(12, 100)
	if _, err := FailureDegradationCtx(context.Background(), jf, m, []float64{0.5}, 0, false, 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := FailureDegradationCtx(context.Background(), jf, m, []float64{1.5}, 1, false, 1); err == nil {
		t.Error("fraction >= 1 accepted")
	}
}

func TestCloneTopologyIndependent(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	c := ft.CloneTopology()
	c.RemoveEdge(0)
	if ft.NumEdges() == c.NumEdges() {
		t.Error("clone removal affected original edge count comparison")
	}
	if !ft.Live(0) {
		t.Error("original lost edge 0")
	}
}
