package physerr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestKindsAreDistinct(t *testing.T) {
	kinds := []error{ErrOutOfRange, ErrCapacity, ErrInfeasibleMedia, ErrInfeasible, ErrCanceled}
	for i, a := range kinds {
		for j, b := range kinds {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("errors.Is(kinds[%d], kinds[%d]) = %v", i, j, errors.Is(a, b))
			}
		}
	}
}

func TestHelpersWrapTheirKind(t *testing.T) {
	cases := []struct {
		err  error
		kind error
	}{
		{OutOfRange("K = %d", 3), ErrOutOfRange},
		{Capacity("rack %s full", "r0.s1"), ErrCapacity},
		{Infeasible("wiring did not converge"), ErrInfeasible},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.kind) {
			t.Errorf("%v does not wrap %v", c.err, c.kind)
		}
		for _, other := range []error{ErrOutOfRange, ErrCapacity, ErrInfeasibleMedia, ErrInfeasible} {
			if other != c.kind && errors.Is(c.err, other) {
				t.Errorf("%v unexpectedly matches %v", c.err, other)
			}
		}
	}
}

// TestCanceledKeepsBothIdentities: the classified error must satisfy
// errors.Is for physerr.ErrCanceled (so callers branch on the repo's
// kind) AND for the stdlib cause (so ^C and deadline stay
// distinguishable). A nil cause still classifies.
func TestCanceledKeepsBothIdentities(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		err := Canceled(cause)
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("Canceled(%v) does not match ErrCanceled", cause)
		}
		if !errors.Is(err, cause) {
			t.Errorf("Canceled(%v) lost its cause", cause)
		}
	}
	if !errors.Is(Canceled(nil), ErrCanceled) {
		t.Error("Canceled(nil) must still be ErrCanceled")
	}
	// Rewrapping through kernel layers must not shed either identity.
	err := fmt.Errorf("experiments: %w", fmt.Errorf("core: %w", Canceled(context.DeadlineExceeded)))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("identities lost through rewrapping: %v", err)
	}
}

func TestKindSurvivesRewrapping(t *testing.T) {
	err := fmt.Errorf("core: %w", fmt.Errorf("placement: %w", Capacity("need 10 racks, hall has 4")))
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("capacity kind lost through rewrapping: %v", err)
	}
	if errors.Is(err, ErrOutOfRange) {
		t.Fatalf("wrong kind matched: %v", err)
	}
}

func TestMessageFormatting(t *testing.T) {
	err := OutOfRange("K = %d must be even", 3)
	want := "K = 3 must be even: parameter out of range"
	if err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
}
