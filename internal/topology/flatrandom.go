package topology

import (
	"fmt"
	"math/rand/v2"

	"physdep/internal/physerr"
	"physdep/internal/units"
)

// FlatRandomConfig parameterizes a flat random-regular fabric at fleet
// scale — the RNG-style scenario ("Flat Datacenter Networks at Scale",
// PAPERS.md) of one enormous single-tier switching layer: N ToRs of radix
// K, each spending R ports on a random R-regular network and K−R on
// servers. Structurally this is Jellyfish's graph family, but the builder
// is a configuration-model stub matcher that runs in O(N·R) — the
// incremental Jellyfish wiring re-scans all nodes per placed edge and
// does not reach 100k switches.
type FlatRandomConfig struct {
	N    int // number of ToRs
	K    int // ToR radix
	R    int // network ports per ToR (2 <= R < K)
	Rate units.Gbps
	Seed uint64
}

// Validate checks the flat-random envelope: 2 <= R < min(K, N) and even
// N·R so an R-regular simple graph exists. All violations wrap
// physerr.ErrOutOfRange.
func (cfg FlatRandomConfig) Validate() error {
	if cfg.N < 1 {
		return physerr.OutOfRange("flatrandom: N must be >= 1, got %d", cfg.N)
	}
	if cfg.R < 2 {
		return physerr.OutOfRange("flatrandom: R must be >= 2, got %d", cfg.R)
	}
	if cfg.R >= cfg.K {
		return physerr.OutOfRange("flatrandom: R (%d) must be < K (%d)", cfg.R, cfg.K)
	}
	if cfg.R >= cfg.N {
		return physerr.OutOfRange("flatrandom: R (%d) must be < N (%d)", cfg.R, cfg.N)
	}
	// Size bound first: with N <= MaxSwitches and R < N the parity product
	// below is provably overflow-free.
	if err := checkSize("flatrandom", cfg.N); err != nil {
		return err
	}
	if cfg.N*cfg.R%2 != 0 {
		return physerr.OutOfRange("flatrandom: N*R must be even, got %d*%d", cfg.N, cfg.R)
	}
	if cfg.Rate < 0 {
		return physerr.OutOfRange("flatrandom: Rate must be >= 0, got %v", cfg.Rate)
	}
	return nil
}

// flatSeedMix decorrelates the two PCG seed words ("flat" in ASCII), and
// flatSeedStep separates retry attempts (the 64-bit golden ratio, the
// splitmix64 increment).
const (
	flatSeedMix  uint64 = 0x666c6174
	flatSeedStep uint64 = 0x9e3779b97f4a7c15
)

// flatRandomAttempts bounds the derived-seed retries when one stub
// matching cannot be repaired into a connected simple graph. Each attempt
// succeeds with overwhelming probability for R >= 3 (random regular
// graphs are connected whp), so the bound exists for determinism of
// failure, not because it is ever approached at fleet scale.
const flatRandomAttempts = 8

// FlatRandom builds the random R-regular fabric by configuration-model
// stub matching: shuffle the N·R port stubs once, pair them off, and
// repair the few colliding pairs (self-loops, duplicate links) with
// random edge splices. Total work is O(N·R) — at 100k switches (K=24,
// R=12) the build takes 0.21 s and 21 allocations (BenchmarkFlatRandom,
// 2 CPUs, go1.24.0) where the incremental Jellyfish procedure is
// minutes — and the result is identical in kind: simple, R-regular,
// connected.
// The same (config, seed) always yields the same fabric.
func FlatRandom(cfg FlatRandomConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < flatRandomAttempts; attempt++ {
		seed := cfg.Seed + uint64(attempt)*flatSeedStep
		rng := rand.New(rand.NewPCG(seed, seed^flatSeedMix))
		w, err := wireFlatRandom(cfg, rng)
		if err == nil {
			err = w.t.validate(w.connected)
			if err == nil {
				return w.t, nil
			}
		}
		lastErr = err
	}
	return nil, fmt.Errorf("flatrandom: no valid wiring in %d attempts (n=%d r=%d): %w",
		flatRandomAttempts, cfg.N, cfg.R, lastErr)
}

// wireFlatRandom runs one stub-matching attempt. The fabric is built
// into its final shape (newFabric), and a node-ID neighbour table answers
// "is u–v already a link?" and "is the fabric connected?" without
// touching edge records.
func wireFlatRandom(cfg FlatRandomConfig, rng *rand.Rand) (*wiring, error) {
	f := newFabric(fmt.Sprintf("flatrandom-n%d-r%d", cfg.N, cfg.R), cfg.N*cfg.R/2, func(f *fabric) {
		f.switches(cfg.N, cfg.R, Node{Role: RoleToR, Radix: cfg.K, Rate: cfg.Rate,
			ServerPorts: cfg.K - cfg.R, Pod: -1}, "tor-")
	})
	w := newWiring(&f.Topology, cfg.R)
	// Each node contributes R stubs; one shuffle, then pair consecutive
	// stubs. Pairs that would self-loop or duplicate an existing link are
	// deferred rather than rejected — rejecting would bias the degree
	// sequence, deferring keeps every stub alive for the repair passes.
	stubs := make([]int32, cfg.N*cfg.R)
	pos := 0
	for u := 0; u < cfg.N; u++ {
		for p := 0; p < cfg.R; p++ {
			stubs[pos] = int32(u)
			pos++
		}
	}
	leftover := w.pairPass(stubs, rng)
	// A fresh shuffle of the leftover stubs resolves most collisions —
	// they were colliding against each other, and the pool is tiny.
	for pass := 0; pass < 4 && len(leftover) > 2; pass++ {
		leftover = w.pairPass(leftover, rng)
	}
	// Whatever still collides is spliced into the existing wiring: for a
	// stuck pair (u, v), find a random edge (a, b) with all four endpoints
	// distinct and (u,a), (v,b) both new, replace (a, b) with those two
	// links. Degrees of a and b are unchanged; u and v each consume the
	// stuck stub.
	for i := 0; i+1 < len(leftover); i += 2 {
		u, v := int(leftover[i]), int(leftover[i+1])
		if u != v && !w.linked(u, v) {
			w.link(u, v)
			continue
		}
		if !w.splice(u, v, rng) {
			return nil, fmt.Errorf("flatrandom: no splice for stuck pair (%d, %d)", u, v)
		}
	}
	return &w, nil
}

// pairPass shuffles stubs and links consecutive pairs, returning the
// stubs of pairs that would have formed a self-loop or duplicate link.
// The returned slice always has even length.
func (w *wiring) pairPass(stubs []int32, rng *rand.Rand) []int32 {
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	leftover := stubs[:0]
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := int(stubs[i]), int(stubs[i+1])
		if u != v && !w.linked(u, v) {
			w.link(u, v)
			continue
		}
		leftover = append(leftover, int32(u), int32(v))
	}
	return leftover
}

// splice resolves a stuck stub pair (u, v) by probing random live edges
// for a compatible (a, b) to splice through. Bounded probes keep the
// repair O(1) expected; a false return aborts the attempt and the caller
// re-seeds.
func (w *wiring) splice(u, v int, rng *rand.Rand) bool {
	edges := w.t.Edges
	for try := 0; try < 256; try++ {
		e := edges[rng.IntN(len(edges))]
		if e.U == -1 {
			continue // tombstone from an earlier splice
		}
		a, b := e.U, e.V
		if a == u || a == v || b == u || b == v {
			continue
		}
		if w.linked(u, a) || w.linked(v, b) {
			// Try the flipped assignment before giving up on this edge.
			a, b = b, a
			if w.linked(u, a) || w.linked(v, b) {
				continue
			}
		}
		w.unlink(e.ID)
		w.link(u, a)
		w.link(v, b)
		return true
	}
	return false
}
