package trafficsim

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// FuzzKSP throws arbitrary path counts at KSPThroughputCtx on a fixed
// small fabric. A k outside [1, MaxKSPK] must classify as out-of-range;
// a valid one must produce a usable throughput factor. Either way, no
// panic and no hang — the bound on k is what keeps the enumeration and
// the water-fill finite.
func FuzzKSP(f *testing.F) {
	f.Add(JellyfishK)
	f.Add(1)
	// Regression seeds: zero, negative and past-the-bound path counts.
	f.Add(0)
	f.Add(-1)
	f.Add(MaxKSPK + 1)
	f.Add(MaxKSPK)
	f.Fuzz(func(t *testing.T, k int) {
		topo, err := topology.LeafSpine(topology.LeafSpineConfig{
			Leaves: 4, Spines: 2, UplinksPerTor: 2, LeafRadix: 6, SpineRadix: 4, Rate: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := KSPThroughputCtx(context.Background(), topo, Uniform(4, 10), k)
		if k < 1 || k > MaxKSPK {
			if err == nil {
				t.Fatalf("invalid k=%d was accepted", k)
			}
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("error kind = %v, want ErrOutOfRange", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid k=%d rejected: %v", k, err)
		}
		if alpha < 0 {
			t.Fatalf("negative throughput factor %v for k=%d", alpha, k)
		}
	})
}
