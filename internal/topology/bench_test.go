package topology

import (
	"context"
	"fmt"
	"slices"
	"testing"
)

// BenchmarkFlatRandom builds the flat random fabric /v1/stats serves
// (radix 24, 12 network ports) from 1k switches up to 100k.
func BenchmarkFlatRandom(b *testing.B) {
	for _, n := range []int{1000, 3000, 5000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := FlatRandomConfig{N: n, K: 24, R: 12, Rate: 100, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FlatRandom(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// generatorShape is one build the daemon benchmark makes on a miss, with
// the allocation ceiling TestGeneratorAllocs holds it to: 5% above the
// count the bulk build makes (9, 16, 11, 15 and 16 in the order below,
// go1.24.0).
type generatorShape struct {
	name   string
	build  func() (*Topology, error)
	allocs float64
}

// generatorShapes are the fat-tree, both Jellyfish sizes and the Xpander
// of the evaluate-miss workload, and serve-hot's smallest Jellyfish.
var generatorShapes = []generatorShape{
	{"fattree/k=8", func() (*Topology, error) { return FatTree(FatTreeConfig{K: 8, Rate: 100}) }, 9.45},
	{"jellyfish/n=64", func() (*Topology, error) {
		return Jellyfish(JellyfishConfig{N: 64, K: 16, R: 8, Rate: 100, Seed: 1})
	}, 16.8},
	{"xpander/d=8,lift=8", func() (*Topology, error) {
		return Xpander(XpanderConfig{D: 8, Lift: 8, ServerPorts: 8, Rate: 100, Seed: 1})
	}, 11.55},
	{"jellyfish/n=96", func() (*Topology, error) {
		return Jellyfish(JellyfishConfig{N: 96, K: 16, R: 8, Rate: 100, Seed: 1})
	}, 15.75},
	{"jellyfish/n=20", func() (*Topology, error) {
		return Jellyfish(JellyfishConfig{N: 20, K: 8, R: 4, Rate: 100, Seed: 1})
	}, 16.8},
}

// BenchmarkGenerators builds each of generatorShapes, plus a 2,000-switch
// Jellyfish whose wiring time the open-list upkeep dominates.
func BenchmarkGenerators(b *testing.B) {
	shapes := append(slices.Clip(generatorShapes), generatorShape{"jellyfish/n=2000", func() (*Topology, error) {
		return Jellyfish(JellyfishConfig{N: 2000, K: 16, R: 8, Rate: 100, Seed: 1})
	}, 0})
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBasicStats runs the ToR path statistics on both sides of
// graph.DefaultExhaustiveBelow: 1,800 ToRs take the exhaustive sweep,
// 5,000 or more the 128-source sample. The flat random fabric (radix 24,
// 12 network ports) has the low diameter the bit-parallel sweep's batches
// favour; the ring, whose diameter is half its size, has the opposite.
func BenchmarkBasicStats(b *testing.B) {
	cases := []struct {
		name  string
		build func() (*Topology, error)
	}{
		{"flatrandom/n=1800", func() (*Topology, error) {
			return FlatRandom(FlatRandomConfig{N: 1800, K: 24, R: 12, Rate: 100, Seed: 1})
		}},
		{"flatrandom/n=5000", func() (*Topology, error) {
			return FlatRandom(FlatRandomConfig{N: 5000, K: 24, R: 12, Rate: 100, Seed: 1})
		}},
		{"ring/n=1800", func() (*Topology, error) { return ring(1800), nil }},
		{"ring/n=20000", func() (*Topology, error) { return ring(20000), nil }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			t, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			t.Freeze()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := t.BasicStatsCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ring returns n radix-4 ToRs, each linked to the next around a cycle.
func ring(n int) *Topology {
	t := NewTopology("ring")
	for range n {
		t.AddSwitch(Node{Role: RoleToR, Radix: 4, Rate: 100, ServerPorts: 2, Pod: -1})
	}
	for u := range n {
		t.Link(u, (u+1)%n)
	}
	return t
}
