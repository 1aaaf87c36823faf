package experiments

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/physerr"
)

// TestRunManyCtxPreCanceled: a canceled batch still returns one outcome
// per requested ID, in order, each carrying an ErrCanceled-classified
// error — the shape cmd/experiments relies on to report a partial run.
func TestRunManyCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids := Order()
	outs := RunManyCtx(ctx, ids)
	if len(outs) != len(ids) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(ids))
	}
	for i, o := range outs {
		if o.ID != ids[i] {
			t.Errorf("outcome %d has ID %q, want %q", i, o.ID, ids[i])
		}
		if o.Err == nil || !errors.Is(o.Err, physerr.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", o.ID, o.Err)
		}
		if o.Res != nil {
			t.Errorf("%s: has a result despite pre-cancellation", o.ID)
		}
	}
}

// noCancelCheckpoint lists the experiments that reach no ctx checkpoint:
// their work is pure arithmetic or a few kernel calls that take no
// context, so an already-canceled context does not stop them. When one
// of them gains a checkpoint, drop it from this list.
var noCancelCheckpoint = map[string]bool{
	"E2": true, "E3": true, "E4": true, "E5": true, "E9": true,
	"E10": true, "E12": true, "E13": true, "E15": true,
	"E20": true, "E22": true,
}

// TestEveryRunnerReturnsPromptlyWhenPreCanceled is the per-kernel
// acceptance check of DESIGN.md §9 at the experiment granularity: every
// registered experiment, handed an already-canceled context, must come
// back with an ErrCanceled-classified error (never a partial table).
// Only the noCancelCheckpoint experiments complete instead, and they must
// then return a full table.
func TestEveryRunnerReturnsPromptlyWhenPreCanceled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipping in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range Order() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Get(id)(ctx)
			if noCancelCheckpoint[id] {
				if err != nil || res == nil || len(res.Lines) < 2 {
					t.Fatalf("%s has no ctx checkpoint but returned err %v without a full table", id, err)
				}
				return
			}
			if !errors.Is(err, physerr.ErrCanceled) {
				t.Fatalf("%s: err = %v, want ErrCanceled", id, err)
			}
		})
	}
}
