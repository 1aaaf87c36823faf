package topology

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"physdep/internal/physerr"
)

// TestValidateRejectsOutOfRange drives every generator's Validate path
// with one representative violation per failure class and asserts the
// error classifies as physerr.ErrOutOfRange.
func TestValidateRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name  string
		build func() error
	}{
		{"fattree odd K", func() error { _, err := FatTree(FatTreeConfig{K: 5}); return err }},
		{"fattree zero K", func() error { _, err := FatTree(FatTreeConfig{K: 0}); return err }},
		{"fattree negative rate", func() error { _, err := FatTree(FatTreeConfig{K: 4, Rate: -1}); return err }},
		{"fattree oversized", func() error { _, err := FatTree(FatTreeConfig{K: 2048}); return err }},
		{"leafspine no spines", func() error {
			_, err := LeafSpine(LeafSpineConfig{Leaves: 4, Spines: 0, UplinksPerTor: 2})
			return err
		}},
		{"leafspine negative radix", func() error {
			_, err := LeafSpine(LeafSpineConfig{Leaves: 4, Spines: 2, UplinksPerTor: 2, LeafRadix: -1})
			return err
		}},
		{"vl2 odd DA", func() error { _, err := VL2(VL2Config{DA: 3, DI: 4}); return err }},
		{"jellyfish R >= K", func() error { _, err := Jellyfish(JellyfishConfig{N: 10, K: 4, R: 4}); return err }},
		{"jellyfish R >= N", func() error { _, err := Jellyfish(JellyfishConfig{N: 3, K: 8, R: 4}); return err }},
		{"jellyfish odd N*R", func() error { _, err := Jellyfish(JellyfishConfig{N: 5, K: 8, R: 3}); return err }},
		{"jellyfish zero N", func() error { _, err := Jellyfish(JellyfishConfig{N: 0, K: 8, R: 0}); return err }},
		{"xpander tiny D", func() error { _, err := Xpander(XpanderConfig{D: 1, Lift: 2}); return err }},
		{"butterfly overflow", func() error {
			_, err := FlattenedButterfly(FlattenedButterflyConfig{C: 24, Dims: 12})
			return err
		}},
		{"fatclique zero Kb", func() error { _, err := FatClique(FatCliqueConfig{Ks: 2, Kb: 0, Kf: 2}); return err }},
		{"slimfly composite Q", func() error { _, err := SlimFly(SlimFlyConfig{Q: 9}); return err }},
		{"slimfly wrong residue", func() error { _, err := SlimFly(SlimFlyConfig{Q: 7}); return err }},
		{"jupiter spine trunk mismatch", func() error {
			_, err := JupiterSpine(JupiterConfig{AggBlocks: 4, SpineBlocks: 2, TrunkWidth: 2, UplinksPer: 3})
			return err
		}},
		{"jupiter direct one block", func() error { _, err := JupiterDirect(JupiterConfig{AggBlocks: 1}); return err }},
		{"transit no transit blocks", func() error {
			_, err := TransitMesh(TransitMeshConfig{OldBlocks: 2, NewBlocks: 2, TransitBlocks: 0,
				LinksWithinMesh: 1, LinksToTransit: 1})
			return err
		}},
		// Regressions for saturation-defeating arithmetic: each of these
		// once slipped past Validate via overflow or a post-saturation
		// division and would have allocated billions of nodes/links.
		// Validate() is called directly so a regression fails the
		// assertion instead of OOMing inside a build.
		{"vl2 saturated product divided", func() error {
			return VL2Config{DA: 131072, DI: 131072}.Validate()
		}},
		{"vl2 sum overflow", func() error {
			return VL2Config{DA: 2, DI: math.MaxInt - 1}.Validate()
		}},
		{"jellyfish parity product overflow", func() error {
			return JellyfishConfig{N: 1 << 40, K: 1 << 41, R: 3}.Validate()
		}},
		{"slimfly huge Q rejected before primality", func() error {
			return SlimFlyConfig{Q: 1<<62 - 57}.Validate()
		}},
		{"jupiter spine trunk product overflow", func() error {
			return JupiterConfig{AggBlocks: 2, SpineBlocks: 2, TrunkWidth: 1 << 62,
				UplinksPer: math.MinInt}.validateSpine()
		}},
		{"jupiter direct huge uplinks", func() error {
			return JupiterConfig{AggBlocks: 2, UplinksPer: 1 << 40}.validateDirect()
		}},
		{"leafspine huge uplinks per tor", func() error {
			return LeafSpineConfig{Leaves: 2, Spines: 2, UplinksPerTor: 1 << 40}.Validate()
		}},
		{"transit sum wraps positive", func() error {
			return TransitMeshConfig{OldBlocks: math.MaxInt, NewBlocks: math.MaxInt,
				TransitBlocks: 10, LinksWithinMesh: 1, LinksToTransit: 1}.Validate()
		}},
		{"transit huge trunk width", func() error {
			return TransitMeshConfig{OldBlocks: 2, NewBlocks: 2, TransitBlocks: 1,
				LinksWithinMesh: 1 << 40, LinksToTransit: 1}.Validate()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build()
			if err == nil {
				t.Fatal("invalid config was accepted")
			}
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("error kind = %v, want physerr.ErrOutOfRange", err)
			}
		})
	}
}

// TestValidateAcceptsCanonicalConfigs pins the envelope open: the configs
// the experiments rely on must keep validating.
func TestValidateAcceptsCanonicalConfigs(t *testing.T) {
	oks := []struct {
		name string
		err  error
	}{
		{"fattree k4", FatTreeConfig{K: 4, Rate: 100}.Validate()},
		{"leafspine", LeafSpineConfig{Leaves: 8, Spines: 4, UplinksPerTor: 4, LeafRadix: 12, SpineRadix: 8, Rate: 100}.Validate()},
		{"vl2", VL2Config{DA: 4, DI: 4, Rate: 100}.Validate()},
		{"jellyfish", JellyfishConfig{N: 20, K: 8, R: 4, Rate: 100}.Validate()},
		{"xpander", XpanderConfig{D: 4, Lift: 4, Rate: 100}.Validate()},
		{"butterfly", FlattenedButterflyConfig{C: 4, Dims: 2, Rate: 100}.Validate()},
		{"fatclique", FatCliqueConfig{Ks: 3, Kb: 3, Kf: 3, Rate: 100}.Validate()},
		{"slimfly q5", SlimFlyConfig{Q: 5, Rate: 100}.Validate()},
		{"transit", TransitMeshConfig{OldBlocks: 2, NewBlocks: 2, TransitBlocks: 1,
			OldRate: 100, NewRate: 400, LinksWithinMesh: 1, LinksToTransit: 1}.Validate()},
	}
	for _, tc := range oks {
		if tc.err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, tc.err)
		}
	}
}

func TestMulCapSaturates(t *testing.T) {
	if got := mulCap(1<<19, 1<<19); got != MaxSwitches+1 {
		t.Errorf("mulCap(2^19, 2^19) = %d, want saturated %d", got, MaxSwitches+1)
	}
	if got := mulCap(3, 0, 5); got != 0 {
		t.Errorf("mulCap with zero factor = %d, want 0", got)
	}
	if got := mulCap(6, 7); got != 42 {
		t.Errorf("mulCap(6,7) = %d, want 42", got)
	}
}

func TestAddCapSaturates(t *testing.T) {
	if got := addCap(math.MaxInt, math.MaxInt, 10); got != MaxSwitches+1 {
		t.Errorf("addCap(MaxInt, MaxInt, 10) = %d, want saturated %d", got, MaxSwitches+1)
	}
	if got := addCap(MaxSwitches, 1); got != MaxSwitches+1 {
		t.Errorf("addCap(MaxSwitches, 1) = %d, want saturated %d", got, MaxSwitches+1)
	}
	if got := addCap(6, 7); got != 13 {
		t.Errorf("addCap(6,7) = %d, want 13", got)
	}
}

// TestIncrementalAddErrorKinds: the two exported incremental adds
// classify their failures — a bad argument is ErrOutOfRange, a fabric
// with no room left for the splices is ErrInfeasible.
func TestIncrementalAddErrorKinds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	// A 3-node Jellyfish is a triangle: the first splice of a degree-4
	// add takes one edge, and every edge left touches the new node.
	tri, err := Jellyfish(JellyfishConfig{N: 3, K: 4, R: 2, Rate: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := JellyfishAddToR(tri, JellyfishConfig{N: 3, K: 6, R: 3, Rate: 100}, rng); !errors.Is(err, physerr.ErrOutOfRange) {
		t.Fatalf("jellyfish odd R: err = %v, want ErrOutOfRange", err)
	}
	if _, _, err := JellyfishAddToR(tri, JellyfishConfig{N: 3, K: 6, R: 4, Rate: 100}, rng); !errors.Is(err, physerr.ErrInfeasible) {
		t.Fatalf("jellyfish without splices: err = %v, want ErrInfeasible", err)
	}

	// A lift-1 Xpander of D=2 is a triangle of one-node meta-nodes: after
	// one add into meta-node 0, every edge touches meta-node 0.
	cfg := XpanderConfig{D: 2, Lift: 1, ServerPorts: 2, Rate: 100, Seed: 1}
	x, err := Xpander(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{-1, cfg.D + 1} {
		if _, _, err := XpanderAddToR(x, cfg, m, rng); !errors.Is(err, physerr.ErrOutOfRange) {
			t.Fatalf("xpander meta-node %d: err = %v, want ErrOutOfRange", m, err)
		}
	}
	if _, _, err := XpanderAddToR(x, cfg, 0, rng); err != nil {
		t.Fatalf("first xpander add: %v", err)
	}
	if _, _, err := XpanderAddToR(x, cfg, 0, rng); !errors.Is(err, physerr.ErrInfeasible) {
		t.Fatalf("xpander without splices: err = %v, want ErrInfeasible", err)
	}
}
