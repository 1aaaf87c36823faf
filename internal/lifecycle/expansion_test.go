package lifecycle

import (
	"math/rand/v2"
	"testing"

	"physdep/internal/topology"
	"physdep/internal/units"
)

// oldFingerprint reimplements the accounting this package used to ship:
// each switch's neighbor multiset compressed to (degree, sum of neighbor
// IDs), with touched switches found by diffing the fingerprint maps
// before and after an add. Kept here, in the test, as the reference the
// regression below proves wrong.
func oldFingerprint(t *topology.Topology) map[int][2]int {
	m := make(map[int][2]int, t.N)
	for u := 0; u < t.N; u++ {
		sum := 0
		for _, id := range t.IncidentEdges(u) {
			sum += t.Edges[id].Other(u)
		}
		m[u] = [2]int{t.Degree(u), sum}
	}
	return m
}

// TestTouchedSwitchFingerprintCollision pins the headline bugfix: the
// (degree, sum) fingerprint collides when a switch's neighbor set swaps
// {1, 4} for {2, 3} — degree stays 2 and the ID sum stays 5 — so the old
// diff reported the switch untouched even though both of its live links
// were broken and re-terminated in the batch. Exact tracking from the
// rewire records actually performed cannot miss it. Reverting
// ExpansionStep to fingerprint diffing makes this test fail.
func TestTouchedSwitchFingerprintCollision(t *testing.T) {
	top := topology.NewTopology("collide")
	for i := 0; i < 6; i++ {
		top.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: 8, Rate: 100, Pod: -1})
	}
	// Switch 0's live links go to 1 and 4; switches 1–5 have other
	// in-service links so every endpoint stays connected after the batch.
	link := func(u, v int) int { return top.Link(u, v) }
	e01 := link(0, 1)
	e04 := link(0, 4)
	link(1, 5)
	link(4, 5)
	link(2, 5)
	link(3, 5)

	before := oldFingerprint(top)
	// The maintenance batch: break live links 0–1 and 0–4 (two rewires
	// whose records both name switch 0), re-terminating the freed ports of
	// switch 0 toward 2 and 3. Net effect at switch 0: neighbors {1, 4} →
	// {2, 3}, same degree, same ID sum.
	rewires := []topology.Rewire{{A: 0, B: 1}, {A: 0, B: 4}}
	top.RemoveEdge(e01)
	top.RemoveEdge(e04)
	link(0, 2)
	link(0, 3)
	after := oldFingerprint(top)

	oldTouched := map[int]bool{}
	for sw, nb := range after {
		if b, ok := before[sw]; !ok || b != nb {
			oldTouched[sw] = true
		}
	}
	if oldTouched[0] {
		t.Fatal("constructed swap no longer collides — the regression scenario lost its teeth")
	}

	var step ExpansionStep
	exact := map[int]bool{}
	step.addRewires(4, rewires, exact)
	if !exact[0] {
		t.Error("exact rewire-record tracking missed switch 0, where both live links were broken")
	}
	for _, sw := range []int{1, 4} {
		if !exact[sw] {
			t.Errorf("exact tracking missed rewire endpoint %d", sw)
		}
	}
	if step.Rewired != 2 {
		t.Errorf("Rewired = %d, want 2", step.Rewired)
	}
}

// TestExpandJellyfishTouchedMatchesGroundTruth checks the production path
// end to end on a real instance: FloorTasks from rewire-record tracking
// must equal the adds plus the switches whose true neighbor *sets* (no
// fingerprint compression) changed.
func TestExpandJellyfishTouchedMatchesGroundTruth(t *testing.T) {
	cfg := topology.JellyfishConfig{N: 24, K: 10, R: 6, Rate: 100, Seed: 9}
	jf, err := topology.Jellyfish(cfg)
	if err != nil {
		t.Fatal(err)
	}
	neighborSets := func(top *topology.Topology) map[int][]int {
		m := make(map[int][]int, top.N)
		for u := 0; u < top.N; u++ {
			m[u] = top.Neighbors(u)
		}
		return m
	}
	// Ground truth replays the same three adds (same rng stream) on a
	// twin, diffing true neighbor sets around each add: a switch other
	// than the add's own new node whose set changed was visited. A ToR
	// added earlier in the batch can be a later splice's endpoint — that
	// is a second, separate visit, so it legitimately counts in both
	// AddedToRs and the touched set.
	twin := jf.CloneTopology()
	truth := map[int]bool{}
	trng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 3; i++ {
		before := neighborSets(twin)
		id, _, err := topology.JellyfishAddToR(twin, cfg, trng)
		if err != nil {
			t.Fatal(err)
		}
		after := neighborSets(twin)
		for sw := range after {
			if sw == id {
				continue
			}
			b, a := before[sw], after[sw]
			same := len(b) == len(a)
			for j := 0; same && j < len(b); j++ {
				same = b[j] == a[j]
			}
			if !same {
				truth[sw] = true
			}
		}
	}
	step, err := ExpandJellyfish(jf, cfg, 3, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(truth) + step.AddedToRs; step.FloorTasks != want {
		t.Errorf("FloorTasks = %d, ground-truth neighbor-set diff gives %d", step.FloorTasks, want)
	}
}

// TestExpansionStepRewireBilling pins the "each rewire = 1 broken live
// link + its re-terminations, priced once" semantics on a hand-built
// 4-node case: a 2-regular ring grown by one ToR needs exactly one
// splice, every port of the new node comes from that splice's freed
// terminations, and the labor bill charges the splice once.
func TestExpansionStepRewireBilling(t *testing.T) {
	cfg := topology.JellyfishConfig{N: 4, K: 4, R: 2, Rate: 100, Seed: 1}
	ring := topology.NewTopology("ring4")
	for i := 0; i < 4; i++ {
		ring.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: 4, Rate: 100,
			ServerPorts: 2, Pod: -1})
	}
	ring.Link(0, 1)
	ring.Link(1, 2)
	ring.Link(2, 3)
	ring.Link(3, 0)
	cablesBefore := ring.NumEdges()

	step, err := ExpandJellyfish(ring, cfg, 1, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if step.Rewired != 1 {
		t.Fatalf("Rewired = %d, want 1 (R/2 splices)", step.Rewired)
	}
	if step.NewLinks != 0 {
		t.Errorf("NewLinks = %d, want 0 — the splice's links are billed as the rewire", step.NewLinks)
	}
	// One add + the broken link's two endpoints.
	if step.FloorTasks != 3 {
		t.Errorf("FloorTasks = %d, want 3", step.FloorTasks)
	}
	// A splice nets +1 cable: one broken, two terminated.
	if got := ring.NumEdges(); got != cablesBefore+1 {
		t.Errorf("cables %d → %d, want +1 per splice", cablesBefore, got)
	}
	if !ring.IsRegular(2) {
		t.Error("ring lost 2-regularity")
	}

	// The labor table at the default prices: 20 min per rewire (three
	// jumper-moves plus four connector ends) covers the whole splice, and
	// 4 min per new link. Under the old double-billing (NewLinks also
	// counted the 2 splice-created links) the first case would have
	// billed 20 + 2×4 = 28.
	cases := []struct {
		step ExpansionStep
		want units.Minutes
	}{
		{step, 20},
		{ExpansionStep{Rewired: 4}, 80},
		{ExpansionStep{NewLinks: 5}, 20},
		{ExpansionStep{Rewired: 2, NewLinks: 3}, 52},
	}
	for i, c := range cases {
		if got := c.step.LaborMinutes(); got != c.want {
			t.Errorf("case %d: LaborMinutes = %v, want %v", i, got, c.want)
		}
	}
}
