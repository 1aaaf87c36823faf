package trafficsim

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// FuzzKSPConfig throws arbitrary routing knobs at KSPThroughput on a
// fixed small fabric. Invalid configs must classify as out-of-range;
// valid ones must produce a usable throughput factor. Either way, no
// panic and no hang — Validate's bounds are what keep the enumeration
// finite.
func FuzzKSPConfig(f *testing.F) {
	f.Add(8, 1, 8)
	f.Add(1, 0, 0)
	// Regression seeds: the silent-default Chunks path and the knobs that
	// used to be unbounded.
	f.Add(0, 0, 0)
	f.Add(8, -1, -3)
	f.Add(1<<30, 1, 8)
	f.Add(2, 1<<30, 8)
	f.Fuzz(func(t *testing.T, k, slack, chunks int) {
		topo, err := topology.LeafSpine(topology.LeafSpineConfig{
			Leaves: 4, Spines: 2, UplinksPerTor: 2, LeafRadix: 6, SpineRadix: 4, Rate: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := Uniform(4, 10)
		cfg := KSPConfig{K: k, Slack: slack, Chunks: chunks}
		alpha, err := KSPThroughputCtx(context.Background(), topo, m, cfg)
		if verr := cfg.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("invalid config %+v was accepted", cfg)
			}
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("error kind = %v, want ErrOutOfRange", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid config %+v rejected: %v", cfg, err)
		}
		if alpha < 0 {
			t.Fatalf("negative throughput factor %v for %+v", alpha, cfg)
		}
	})
}
