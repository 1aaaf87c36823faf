package par

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"physdep/internal/obs"
)

// TestForWorkerTaskAccounting: with collection on, the per-worker task
// counters must sum to exactly the number of executed work items, for
// serial and parallel widths alike — the occupancy breakdown the run
// manifest reports.
func TestForWorkerTaskAccounting(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			obs.Reset()
			obs.Enable()
			defer func() {
				obs.Disable()
				obs.Reset()
			}()
			SetWorkers(workers)
			defer SetWorkers(0)

			const n = 100
			if err := ForCtx(context.Background(), n, func(i int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			s := obs.TakeSnapshot()
			if s.Counters["par.tasks"] != n {
				t.Errorf("par.tasks = %d, want %d", s.Counters["par.tasks"], n)
			}
			var perWorker int64
			for name, v := range s.Counters {
				if len(name) > 11 && name[:11] == "par.worker." {
					perWorker += v
				}
			}
			if perWorker != n {
				t.Errorf("per-worker task counters sum to %d, want %d", perWorker, n)
			}
			if s.Counters["par.loops"] != 1 {
				t.Errorf("par.loops = %d, want 1", s.Counters["par.loops"])
			}
			w := int64(workers)
			if n < workers {
				w = n
			}
			if s.Counters["par.loop_width"] != w {
				t.Errorf("par.loop_width = %d, want %d", s.Counters["par.loop_width"], w)
			}
		})
	}
}

// TestForWorkerTaskAccountingOnError: an early-exiting serial loop must
// count only the tasks it ran.
func TestForWorkerTaskAccountingOnError(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	SetWorkers(1)
	defer SetWorkers(0)

	boom := errors.New("boom")
	err := ForCtx(context.Background(), 50, func(i int) error {
		if i == 9 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := obs.TakeSnapshot().Counters["par.tasks"]; got != 10 {
		t.Errorf("par.tasks = %d after early error at index 9, want 10", got)
	}
}

// TestForDisabledCollectionRecordsNothing keeps the side channel silent
// by default.
func TestForDisabledCollectionRecordsNothing(t *testing.T) {
	obs.Reset()
	obs.Disable()
	if err := ForCtx(context.Background(), 10, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if s := obs.TakeSnapshot(); len(s.Counters) != 0 {
		t.Fatalf("disabled collection recorded counters: %v", s.Counters)
	}
}
