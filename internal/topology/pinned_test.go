package topology

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
)

// pinnedDigests holds one SHA-256 per pinned build, recorded from the
// per-switch generators (one AddSwitch and one Sprintf label per node,
// edge-record HasEdgeBetween checks and a full open-list rescan per
// Jellyfish draw) before the bulk builds replaced them. Each line is
// "<case> <digest>".
const pinnedDigests = "testdata/generators_pinned.txt"

// TestGeneratorsPinned holds every generator to the fabrics it built
// before the bulk builds: the name, every Node, every Edge (tombstones
// included) and every adjacency row in slot order, or the error text,
// must hash to the recorded digest. The cases cover each family over
// several configs — the benchmark's shapes among them — with seeds 1–16
// where the family is random, Jellyfish shapes whose wiring reaches the
// single splice, the double splice and a failed connectivity check, and
// JellyfishAddToR / XpanderAddToR growth sequences.
func TestGeneratorsPinned(t *testing.T) {
	want := readPinned(t)
	got := pinnedCases()
	if len(got) != len(want) {
		t.Errorf("%d pinned cases, %d recorded", len(got), len(want))
	}
	for _, c := range got {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no recorded digest", c.name)
			continue
		}
		if c.digest != w {
			t.Errorf("%s: digest %s, recorded %s", c.name, c.digest, w)
		}
	}
}

func readPinned(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(pinnedDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed line %q", line)
		}
		out[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

type pinnedCase struct{ name, digest string }

// pinnedCases builds every pinned case and digests it.
func pinnedCases() []pinnedCase {
	var out []pinnedCase
	add := func(name string, topo *Topology, err error) {
		h := sha256.New()
		hashFabric(h, topo, err)
		out = append(out, pinnedCase{name, hex.EncodeToString(h.Sum(nil))})
	}
	for _, k := range []int{2, 4, 6, 8, 10} {
		cfg := FatTreeConfig{K: k, Rate: 100}
		topo, err := FatTree(cfg)
		add(fmt.Sprintf("fattree/%+v", cfg), topo, err)
	}
	for _, cfg := range []LeafSpineConfig{
		{Leaves: 8, Spines: 4, UplinksPerTor: 4, ServerPorts: 4, LeafRadix: 8, SpineRadix: 8, Rate: 100},
		{Leaves: 6, Spines: 4, UplinksPerTor: 3, ServerPorts: 5, LeafRadix: 8, SpineRadix: 6, Rate: 40},
		{Leaves: 16, Spines: 4, UplinksPerTor: 4, ServerPorts: 12, LeafRadix: 16, SpineRadix: 16, Rate: 100},
	} {
		topo, err := LeafSpine(cfg)
		add(fmt.Sprintf("leafspine/%+v", cfg), topo, err)
	}
	for _, cfg := range []VL2Config{
		{DA: 4, DI: 4, ServerPorts: 4, Rate: 100},
		{DA: 8, DI: 6, ServerPorts: 8, Rate: 100},
		{DA: 6, DI: 3, ServerPorts: 2, Rate: 40},
	} {
		topo, err := VL2(cfg)
		add(fmt.Sprintf("vl2/%+v", cfg), topo, err)
	}
	for _, sh := range [][3]int{
		{20, 8, 4}, {16, 8, 4}, {24, 8, 4}, {64, 16, 8}, {96, 16, 8},
		{10, 6, 3}, {7, 6, 4}, {12, 8, 5}, {13, 10, 8}, {40, 12, 6},
	} {
		for seed := uint64(1); seed <= 16; seed++ {
			cfg := JellyfishConfig{N: sh[0], K: sh[1], R: sh[2], Rate: 100, Seed: seed}
			topo, err := Jellyfish(cfg)
			add(fmt.Sprintf("jellyfish/%+v", cfg), topo, err)
		}
	}
	// Seeds past 16 found on the per-switch build: each one's wiring
	// reaches the single splice (s), the double splice (d) or both, or
	// the fabric fails its connectivity check (x).
	for _, c := range []struct {
		n, k, r int
		seed    uint64
	}{
		{20, 8, 4, 20}, {20, 8, 4, 21}, {20, 8, 4, 26}, // s
		{20, 8, 4, 22},                   // d
		{96, 16, 8, 26}, {96, 16, 8, 35}, // s
		{7, 6, 4, 17}, {7, 6, 4, 19}, // s+d, s
		{12, 8, 5, 17}, {12, 8, 5, 18}, {12, 8, 5, 19}, // s, d, d
		{8, 6, 3, 17}, {8, 6, 3, 18}, // s, s+d
		{10, 6, 3, 53}, // d, x
	} {
		cfg := JellyfishConfig{N: c.n, K: c.k, R: c.r, Rate: 100, Seed: c.seed}
		topo, err := Jellyfish(cfg)
		add(fmt.Sprintf("jellyfish/%+v", cfg), topo, err)
	}
	for _, sh := range [][3]int{{8, 8, 8}, {4, 1, 4}, {3, 5, 2}, {6, 4, 8}, {4, 4, 4}} {
		for seed := uint64(1); seed <= 16; seed++ {
			cfg := XpanderConfig{D: sh[0], Lift: sh[1], ServerPorts: sh[2], Rate: 100, Seed: seed}
			topo, err := Xpander(cfg)
			add(fmt.Sprintf("xpander/%+v", cfg), topo, err)
		}
	}
	for _, cfg := range []SlimFlyConfig{{Q: 5, ServerPorts: 3, Rate: 100}, {Q: 13, ServerPorts: 8, Rate: 100}} {
		topo, err := SlimFly(cfg)
		add(fmt.Sprintf("slimfly/%+v", cfg), topo, err)
	}
	for _, cfg := range []FlattenedButterflyConfig{
		{C: 4, Dims: 2, ServerPorts: 8, Rate: 100},
		{C: 3, Dims: 3, ServerPorts: 2, Rate: 100},
		{C: 5, Dims: 1, ServerPorts: 1, Rate: 40},
	} {
		topo, err := FlattenedButterfly(cfg)
		add(fmt.Sprintf("flatbutterfly/%+v", cfg), topo, err)
	}
	for _, cfg := range []FatCliqueConfig{
		{Ks: 3, Kb: 3, Kf: 3, ServerPorts: 4, Rate: 100},
		{Ks: 4, Kb: 2, Kf: 3, ServerPorts: 2, Rate: 100},
		{Ks: 2, Kb: 2, Kf: 2, ServerPorts: 1, Rate: 40},
	} {
		topo, err := FatClique(cfg)
		add(fmt.Sprintf("fatclique/%+v", cfg), topo, err)
	}
	for _, cfg := range []JupiterConfig{
		{AggBlocks: 4, SpineBlocks: 2, TrunkWidth: 2, UplinksPer: 4, ServerPorts: 8, Rate: 100},
		{AggBlocks: 6, SpineBlocks: 3, TrunkWidth: 1, UplinksPer: 3, ServerPorts: 3, Rate: 400},
	} {
		topo, err := JupiterSpine(cfg)
		add(fmt.Sprintf("jupiter-spine/%+v", cfg), topo, err)
	}
	for _, cfg := range []JupiterConfig{
		{AggBlocks: 5, UplinksPer: 7, ServerPorts: 8, Rate: 100},
		{AggBlocks: 4, UplinksPer: 6, ServerPorts: 2, Rate: 100},
	} {
		topo, err := JupiterDirect(cfg)
		add(fmt.Sprintf("jupiter-direct/%+v", cfg), topo, err)
	}
	for _, cfg := range []TransitMeshConfig{
		{OldBlocks: 3, NewBlocks: 2, TransitBlocks: 2, OldRate: 100, NewRate: 400,
			LinksWithinMesh: 2, LinksToTransit: 1, ServerPorts: 4},
		{OldBlocks: 2, NewBlocks: 3, TransitBlocks: 1, OldRate: 40, NewRate: 100,
			LinksWithinMesh: 1, LinksToTransit: 2, ServerPorts: 0},
	} {
		topo, err := TransitMesh(cfg)
		add(fmt.Sprintf("transit/%+v", cfg), topo, err)
	}
	for seed := uint64(1); seed <= 16; seed++ {
		cfg := FlatRandomConfig{N: 40, K: 10, R: 6, Rate: 100, Seed: seed}
		topo, err := FlatRandom(cfg)
		add(fmt.Sprintf("flatrandom/%+v", cfg), topo, err)
	}
	// Growth sequences: six incremental adds on a built fabric, each add's
	// rewires and error folded into the final digest.
	for seed := uint64(1); seed <= 16; seed++ {
		cfg := JellyfishConfig{N: 20, K: 8, R: 4, Rate: 100, Seed: seed}
		h := sha256.New()
		topo, err := Jellyfish(cfg)
		if err == nil {
			rng := rand.New(rand.NewPCG(seed, 0x67726f77))
			for i := 0; i < 6; i++ {
				id, rewires, err := JellyfishAddToR(topo, cfg, rng)
				fmt.Fprintf(h, "add %d %v %v\n", id, rewires, err)
			}
		}
		hashFabric(h, topo, err)
		out = append(out, pinnedCase{fmt.Sprintf("jellyfish-grow/%+v", cfg), hex.EncodeToString(h.Sum(nil))})
	}
	for seed := uint64(1); seed <= 16; seed++ {
		cfg := XpanderConfig{D: 4, Lift: 4, ServerPorts: 4, Rate: 100, Seed: seed}
		h := sha256.New()
		topo, err := Xpander(cfg)
		if err == nil {
			rng := rand.New(rand.NewPCG(seed, 0x67726f77))
			for i := 0; i < 6; i++ {
				id, rewires, err := XpanderAddToR(topo, cfg, i%(cfg.D+1), rng)
				fmt.Fprintf(h, "add %d %v %v\n", id, rewires, err)
			}
		}
		hashFabric(h, topo, err)
		out = append(out, pinnedCase{fmt.Sprintf("xpander-grow/%+v", cfg), hex.EncodeToString(h.Sum(nil))})
	}
	return out
}

// hashFabric writes the error text, or the fabric's name, nodes, edges
// and adjacency rows, to h.
func hashFabric(h hash.Hash, topo *Topology, err error) {
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	fmt.Fprintf(h, "%s %d\n", topo.Name, topo.N)
	for _, n := range topo.Nodes {
		fmt.Fprintf(h, "%+v\n", n)
	}
	for _, e := range topo.Edges {
		fmt.Fprintf(h, "%+v\n", e)
	}
	for u := 0; u < topo.N; u++ {
		fmt.Fprintf(h, "%v\n", topo.IncidentEdges(u))
	}
}
