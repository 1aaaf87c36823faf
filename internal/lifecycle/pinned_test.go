package lifecycle

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"physdep/internal/topology"
)

// TestPlanGrowthPinned pins the planner's whole output — every step,
// every stage row, every total — as the SHA-256 of json.Marshal(plan),
// over both growers and schedules that are ToR-only, trunk-only, mixed,
// made of single-order stages, one stage and six stages, each at three
// seeds with the ordering anneal off and on. A change to how plans are
// computed must leave every hash as it is.
func TestPlanGrowthPinned(t *testing.T) {
	jcfg := topology.JellyfishConfig{N: 24, K: 12, R: 6, Rate: 100, Seed: 5}
	jf, err := topology.Jellyfish(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	xcfg := topology.XpanderConfig{D: 6, Lift: 5, ServerPorts: 4, Rate: 100, Seed: 3}
	xp, err := topology.Xpander(xcfg)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := []struct {
		t *topology.Topology
		g Grower
	}{{jf, JellyfishGrower{Cfg: jcfg}}, {xp, XpanderGrower{Cfg: xcfg}}}
	schedules := []struct {
		name   string
		stages []GrowthStage
	}{
		{"tor-only", []GrowthStage{{AddToRs: 3}, {AddToRs: 2}}},
		{"trunk-only", []GrowthStage{{AddTrunks: 3}, {AddTrunks: 2}}},
		{"mixed", []GrowthStage{{AddToRs: 2, AddTrunks: 1}, {AddToRs: 2, AddTrunks: 2}}},
		{"single-order", []GrowthStage{{AddToRs: 1}, {AddTrunks: 1}, {AddToRs: 1}}},
		{"one-stage", []GrowthStage{{AddToRs: 3, AddTrunks: 3}}},
		{"six-stages", []GrowthStage{{AddToRs: 1, AddTrunks: 1}, {AddToRs: 1}, {AddTrunks: 2},
			{AddToRs: 2, AddTrunks: 1}, {AddToRs: 1, AddTrunks: 1}, {AddTrunks: 1}}},
	}
	want := map[string]string{
		"jellyfish/tor-only":     "6c954a69771a4418e11eb67a8c3f7195ab691d4c02d3b3dd72e39ac2c992058e",
		"jellyfish/trunk-only":   "05d3d9fc3a207c1be81fa10c740344ac6a500364c71efb7c31b15b11d55c7c10",
		"jellyfish/mixed":        "ce13b264e8173c93d914c9fcc44afc1a89b3477f1fa3948fa5f3d938b40e1a61",
		"jellyfish/single-order": "679c6719c4e9de4b43581050c14776f05a7f1b640e8242b20175fcf36aa78fb1",
		"jellyfish/one-stage":    "0a5835608a90d26eefb2b93a6a4335ae64878cfe246b25d196994ad4d56da5eb",
		"jellyfish/six-stages":   "16353f5de6213409427b24e35c1fa85ad08c0fa61e52091f78fd6701796aff65",
		"xpander/tor-only":       "a4091aad66c539649612209e6aa836f259eedf8f04556fccdd33534b871bb133",
		"xpander/trunk-only":     "ac3f925fd2eb7b629277ccd52c24a4af93fc4a73199525707abbefac91a77efb",
		"xpander/mixed":          "5a22f3d0d215f15291702d4b16397be54ac1016274b07620ae31ca38155939f5",
		"xpander/single-order":   "0931cbeb7268555786aad0e4ab2f641401abbf1f8405393b04b197337995f54c",
		"xpander/one-stage":      "e6020a83936d3086d47e396b11d49da04f7b2765413e9e85070775f547b9631c",
		"xpander/six-stages":     "5e383aeb3d520a2e53451e5f6e498f86ebcea341601e5b759cbd63dfd2c70f41",
	}
	for _, fab := range fabrics {
		for _, sch := range schedules {
			name := fab.g.Label() + "/" + sch.name
			h := sha256.New()
			for _, seed := range []uint64{1, 7, 23} {
				for _, steps := range []int{0, 2000} {
					cfg := PlannerConfig{Stages: sch.stages, AnnealSteps: steps, Seed: seed}
					plan, err := PlanGrowthCtx(context.Background(), fab.t, fab.g, cfg)
					if err != nil {
						t.Fatalf("%s seed %d steps %d: %v", name, seed, steps, err)
					}
					b, err := json.Marshal(plan)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
				t.Errorf("%s: plans hash to %s, pinned %s", name, got, want[name])
			}
		}
	}
}

// TestClosRewirePinned pins every panel's jumper mapping and every
// RewireReport through sequences of panel-Clos operations: first wiring
// of a uniform and of a skewed striping, re-stripes that need parks,
// ExpandAggs, and random instances whose decomposition needs retries.
// First wiring is a Rewire from no jumpers.
func TestClosRewirePinned(t *testing.T) {
	type op struct {
		name string
		do   func(cf *ClosFabric) (RewireReport, error)
	}
	rewireTo := func(name string, m [][]int) op {
		return op{name, func(cf *ClosFabric) (RewireReport, error) { return cf.Rewire(m) }}
	}
	expand := func(newAggs, uplinks, ports int) op {
		return op{fmt.Sprintf("expand+%d", newAggs), func(cf *ClosFabric) (RewireReport, error) {
			return cf.ExpandAggs(newAggs, uplinks, ports)
		}}
	}
	skew := UniformDemand(8, 4, 16)
	skew[0][0] += 4
	skew[0][1] -= 4
	skew[1][0] -= 4
	skew[1][1] += 4
	apart := [][]int{{4, 0}, {0, 4}}
	striped := [][]int{{2, 2}, {2, 2}}

	type closCase struct {
		name      string
		cf        *ClosFabric
		ops       []op
		wantParks bool
		// retry, when set, is the first wiring's demand, whose first
		// decomposition try must fail.
		retry [][]int
	}
	mk := func(aggs, spines, uplinks, ports int) *ClosFabric {
		cf, err := NewClosFabric(aggs, spines, uplinks, ports)
		if err != nil {
			t.Fatal(err)
		}
		return cf
	}
	cases := []closCase{
		{name: "uniform", cf: mk(16, 8, 16, 64),
			ops: []op{rewireTo("wire", UniformDemand(16, 8, 16)), expand(2, 16, 64), expand(2, 16, 64)}},
		{name: "skewed", cf: mk(8, 4, 16, 64), ops: []op{rewireTo("wire", skew), expand(4, 16, 64)}},
		{name: "restripe", cf: mk(2, 2, 4, 16),
			ops:       []op{rewireTo("wire", apart), rewireTo("stripe", striped), rewireTo("apart", apart)},
			wantParks: true},
	}
	for _, seed := range []uint64{5562, 15049} {
		cf, demand, ok := stressInstance(seed)
		if !ok {
			t.Fatalf("stress seed %d makes no fabric", seed)
		}
		cases = append(cases, closCase{name: fmt.Sprintf("stress-%d", seed), cf: cf,
			ops: []op{rewireTo("wire", demand)}, retry: demand})
	}
	want := map[string]string{
		"uniform":      "e5ab691ddaa75a3fdc00a0badf98fd39899bbc9d4a158b9a89e92efe46546975",
		"skewed":       "3d374b5aad34bfed6cef4256019871aa952be474c1d2f84816cdada1eeecd72e",
		"restripe":     "ab488a5d7ad781beace44b3bfdcc4b53ed5a09f34f9fcea00f28c5caa68aa40e",
		"stress-5562":  "ef8049cf2d823614697fcc9c307abb4cd71577c1d09a57c3f18aca46287cb491",
		"stress-15049": "7b9af84c2a4c74ad0a8f0747f1fc69e07fd5a7020f56897cdf817fe729802144",
	}

cases:
	for _, c := range cases {
		cf := c.cf
		if c.retry != nil {
			if _, err := decomposeOnce(c.retry, freeFronts(cf), freeBacks(cf), 0); err == nil {
				t.Errorf("%s: first decomposition try succeeds; the case no longer needs retries", c.name)
			}
		}
		h := sha256.New()
		parks := 0
		for _, o := range c.ops {
			rep, err := o.do(cf)
			if err != nil {
				t.Errorf("%s/%s: %v", c.name, o.name, err)
				continue cases
			}
			parks += rep.Parks
			fmt.Fprintf(h, "%s %+v\n", o.name, rep)
			for _, panel := range cf.Panels {
				fmt.Fprintf(h, "%s %v\n", panel.Name, panel.Mapping())
			}
		}
		if c.wantParks && parks == 0 {
			t.Errorf("%s: no re-stripe needed a park", c.name)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[c.name] {
			t.Errorf("%s: mappings and reports hash to %s, pinned %s", c.name, got, want[c.name])
		}
	}
}

// freeFronts and freeBacks count an unwired fabric's ports per (panel,
// agg) and per (panel, spine): the capacities its first wiring
// decomposes against.
func freeFronts(cf *ClosFabric) [][]int {
	ff := zeroMatrix(len(cf.Panels), cf.Aggs)
	for pi, owners := range cf.frontOwner {
		for _, a := range owners {
			if a != -1 {
				ff[pi][a]++
			}
		}
	}
	return ff
}

func freeBacks(cf *ClosFabric) [][]int {
	fb := zeroMatrix(len(cf.Panels), cf.Spines)
	for pi, owners := range cf.backOwner {
		for _, s := range owners {
			if s != -1 {
				fb[pi][s]++
			}
		}
	}
	return fb
}
