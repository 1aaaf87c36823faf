package graph

import (
	"math/rand/v2"
	"testing"
)

// count returns the number of added words that had bit k set, read from
// the planes; it needs a flush after the last add.
func (c *vcounter) count(k int) int {
	n := 0
	for j := range c.planes {
		n |= int(c.plane[j]>>k&1) << j
	}
	return n
}

// TestVCounterMatchesNaive adds runs of 0 to 100 seeded words (random,
// single-bit, all-ones and zero, each repeated up to 3 times) to one
// counter, so runs end empty, mid-block, on a block edge and after
// several blocks, and checks every bit's count against a per-bit tally.
// Each length runs twice with a reset between, so the second round shows
// that a reused counter starts from zero.
func TestVCounterMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 0xc0c0))
	var c vcounter
	for n := 0; n <= 100; n++ {
		for round := range 2 {
			c.reset()
			if c.plane != [64]uint64{} {
				t.Fatalf("%d words, round %d: reset left planes %x", n, round, c.plane)
			}
			var tally [64]int
			for added := 0; added < n; {
				var x uint64
				switch rng.IntN(4) {
				case 0:
					x = rng.Uint64()
				case 1:
					x = 1 << rng.IntN(64)
				case 2:
					x = ^uint64(0)
				}
				for r := 1 + rng.IntN(3); r > 0 && added < n; r-- {
					c.add(x)
					added++
					for k := range tally {
						tally[k] += int(x >> k & 1)
					}
				}
			}
			c.flush()
			for k, want := range tally {
				if got := c.count(k); got != want {
					t.Fatalf("%d words, round %d: bit %d counted %d, want %d", n, round, k, got, want)
				}
			}
		}
	}
}
