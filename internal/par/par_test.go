package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withWorkers runs body under a fixed worker override, restoring the
// previous override after.
func withWorkers(t *testing.T, n int, body func()) {
	t.Helper()
	prev := int(workerOverride.Load())
	SetWorkers(n)
	defer SetWorkers(prev)
	body()
}

func TestMapPreservesOrder(t *testing.T) {
	for _, w := range []int{1, 2, 8, 33} {
		withWorkers(t, w, func() {
			out, err := MapCtx(context.Background(), 100, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
				}
			}
		})
	}
}

func TestForReportsLowestFailingIndex(t *testing.T) {
	for _, w := range []int{1, 4, 16} {
		withWorkers(t, w, func() {
			err := ForCtx(context.Background(), 64, func(i int) error {
				if i%7 == 3 { // fails at 3, 10, 17, ...
					return fmt.Errorf("fail@%d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "fail@3" {
				t.Fatalf("workers=%d: err = %v, want fail@3", w, err)
			}
		})
	}
}

func TestForStopsAfterError(t *testing.T) {
	withWorkers(t, 4, func() {
		var ran atomic.Int64
		sentinel := errors.New("boom")
		err := ForCtx(context.Background(), 10000, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
		if n := ran.Load(); n == 10000 {
			t.Errorf("all %d items ran despite an early error; expected early stop", n)
		}
	})
}

func TestForWorkerIDsAreExclusiveScratchSlots(t *testing.T) {
	withWorkers(t, 4, func() {
		// Per-worker counters must never race: a worker id is owned by one
		// goroutine at a time. Run under -race this is a real check.
		counters := make([]int, Workers())
		err := ForWorkerCtx(context.Background(), 1000, func(w, i int) error {
			counters[w]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range counters {
			total += c
		}
		if total != 1000 {
			t.Fatalf("counters sum to %d, want 1000", total)
		}
	})
}

func TestRandStreamsAreStableAcrossWorkerCounts(t *testing.T) {
	draw := func(workers int) []float64 {
		var out []float64
		withWorkers(t, workers, func() {
			out = make([]float64, 50)
			err := ForCtx(context.Background(), 50, func(i int) error {
				rng := Rand(42, i)
				out[i] = rng.Float64() + float64(rng.IntN(1000))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		return out
	}
	a, b := draw(1), draw(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream %d differs across worker counts: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedAtMatchesRand(t *testing.T) {
	// SeedAt is documented as the derivation Rand uses; keep them in sync.
	for i := 0; i < 10; i++ {
		if SeedAt(7, i) != splitmix64(7+uint64(i)*0x9e3779b97f4a7c15) {
			t.Fatalf("SeedAt diverged from the documented derivation at i=%d", i)
		}
	}
}

func TestWorkersEnvAndOverride(t *testing.T) {
	// Without an override the pools follow the environment's GOMAXPROCS;
	// SetWorkers overrides it, upward too, until SetWorkers(0).
	SetWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d without an override, want GOMAXPROCS %d", got, want)
	}
	SetWorkers(5)
	defer SetWorkers(0)
	if got := Workers(); got != 5 {
		t.Fatalf("Workers() = %d after SetWorkers(5), want 5", got)
	}
}
