package topoeng

import (
	"context"
	"testing"

	"physdep/internal/trafficsim"
)

func skewedDemand(blocks int, hotPairs [][2]int, hot, cold float64) [][]float64 {
	d := make([][]float64, blocks)
	for a := range d {
		d[a] = make([]float64, blocks)
		for b := range d[a] {
			if a != b {
				d[a][b] = cold
			}
		}
	}
	for _, p := range hotPairs {
		d[p[0]][p[1]] = hot
		d[p[1]][p[0]] = hot
	}
	return d
}

func TestEngineerRespectsBudgets(t *testing.T) {
	demand := skewedDemand(6, [][2]int{{0, 1}}, 100, 1)
	al, err := Engineer(6, 20, 1, demand)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 6; a++ {
		if u := al.Used(a); u > 20 {
			t.Errorf("block %d uses %d uplinks, budget 20", a, u)
		}
	}
	// Symmetry and connectivity floor.
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if al.W[a][b] != al.W[b][a] {
				t.Fatalf("asymmetric allocation at %d,%d", a, b)
			}
			if a != b && al.W[a][b] < 1 {
				t.Errorf("pair %d-%d below connectivity floor", a, b)
			}
		}
	}
	// The hot pair gets more than any cold pair.
	if al.W[0][1] <= al.W[2][3] {
		t.Errorf("hot pair width %d not above cold pair %d", al.W[0][1], al.W[2][3])
	}
}

func TestEngineerValidation(t *testing.T) {
	if _, err := Engineer(1, 10, 1, nil); err == nil {
		t.Error("1 block accepted")
	}
	if _, err := Engineer(4, 2, 1, skewedDemand(4, nil, 0, 1)); err == nil {
		t.Error("floor exceeding budget accepted")
	}
	bad := skewedDemand(3, nil, 0, 1)
	bad[0][1] = 5 // asymmetric
	if _, err := Engineer(3, 10, 1, bad); err == nil {
		t.Error("asymmetric demand accepted")
	}
	bad2 := skewedDemand(3, nil, 0, 1)
	bad2[0][1], bad2[1][0] = -1, -1
	if _, err := Engineer(3, 10, 1, bad2); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestUniformAllocation(t *testing.T) {
	al := Uniform(8, 14)
	for a := 0; a < 8; a++ {
		if u := al.Used(a); u > 14 {
			t.Errorf("block %d over budget: %d", a, u)
		}
	}
	if al.W[0][1] != 2 {
		t.Errorf("uniform width = %d, want 2", al.W[0][1])
	}
}

func TestRetargets(t *testing.T) {
	u := Uniform(6, 10)
	demand := skewedDemand(6, [][2]int{{0, 1}}, 100, 1)
	e, err := Engineer(6, 10, 1, demand)
	if err != nil {
		t.Fatal(err)
	}
	moves, err := Retargets(u, e)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Error("engineering a skewed demand required no retargets")
	}
	same, err := Retargets(e, e)
	if err != nil {
		t.Fatal(err)
	}
	if same != 0 {
		t.Errorf("self-retargets = %d", same)
	}
	if _, err := Retargets(u, Uniform(5, 10)); err == nil {
		t.Error("mismatched sizes accepted")
	}
}

func TestReconfigMinutes(t *testing.T) {
	if got := ReconfigMinutes(30, 0.2); got != 6 {
		t.Errorf("30 moves at 0.2 min = %v, want 6", got)
	}
}

func TestEngineeredMeshBeatsUniformOnSkewedTraffic(t *testing.T) {
	// The Jupiter Evolving claim: under persistent skew, a demand-aware
	// mesh admits more traffic than the uniform mesh.
	const blocks, uplinks = 8, 28
	hot := [][2]int{{0, 1}, {2, 3}}
	demand := skewedDemand(blocks, hot, 400, 20)
	uni := Uniform(blocks, uplinks)
	eng, err := Engineer(blocks, uplinks, 1, demand)
	if err != nil {
		t.Fatal(err)
	}
	tm := trafficsim.NewMatrix(blocks)
	for a := 0; a < blocks; a++ {
		for b := 0; b < blocks; b++ {
			tm.D[a][b] = demand[a][b]
		}
	}
	tu, err := BuildTopology(uni, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	te, err := BuildTopology(eng, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	au, err := trafficsim.KSPThroughputCtx(context.Background(), tu, tm, trafficsim.JellyfishK)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := trafficsim.KSPThroughputCtx(context.Background(), te, tm, trafficsim.JellyfishK)
	if err != nil {
		t.Fatal(err)
	}
	if ae <= au {
		t.Errorf("engineered mesh alpha %v not above uniform %v", ae, au)
	}
}

func TestBuildTopologyConnected(t *testing.T) {
	al := Uniform(5, 8)
	tp, err := BuildTopology(al, 400, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Connected() {
		t.Error("mesh disconnected")
	}
	if got := tp.NumSwitches(); got != 5 {
		t.Errorf("blocks = %d", got)
	}
}
