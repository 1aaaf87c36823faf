// Package physerr defines the error contract of physdep's library
// boundary. Every exported entry point that can fail on *user-supplied*
// input returns an error wrapping exactly one of the sentinel kinds
// below, so callers can branch on the failure class with errors.Is
// without parsing messages:
//
//	_, err := topology.FatTree(cfg)
//	if errors.Is(err, physerr.ErrOutOfRange) { ... } // fix the config
//
// The kinds partition user-input failures:
//
//   - ErrOutOfRange — a parameter is outside its declared envelope
//     (negative counts, odd fat-tree K, rack location off the floor,
//     a design too large to build). The request itself is malformed.
//   - ErrCapacity — the request is well-formed but a physical capacity
//     would be exceeded (more racks than the hall has slots, a rack's
//     RU budget overrun). A bigger hall or smaller design would fix it.
//   - ErrInfeasibleMedia — no purchasable cable in the catalog can
//     serve a link at its rate, length, and loss budget.
//   - ErrInfeasible — the parameters are in range but the construction
//     or search could not be realized (a random wiring that never
//     converged, a routing request with no path).
//   - ErrCanceled — the caller's context was canceled or its deadline
//     expired before the computation finished. Nothing was wrong with
//     the input; the same call with a fresh context may succeed. Errors
//     of this kind also match the triggering context error, so both
//     errors.Is(err, physerr.ErrCanceled) and
//     errors.Is(err, context.DeadlineExceeded) work.
//
// Internal invariant breaches — bookkeeping bugs that no user input
// should be able to reach — keep panicking; see DESIGN.md §8 for the
// full contract.
package physerr

import (
	"errors"
	"fmt"
)

// The sentinel kinds. Match with errors.Is; never compare messages.
var (
	ErrOutOfRange      = errors.New("parameter out of range")
	ErrCapacity        = errors.New("capacity exceeded")
	ErrInfeasibleMedia = errors.New("no feasible media")
	ErrInfeasible      = errors.New("construction infeasible")
	ErrCanceled        = errors.New("run canceled")
)

// OutOfRange returns a formatted error wrapping ErrOutOfRange.
func OutOfRange(format string, args ...any) error {
	return wrap(ErrOutOfRange, format, args...)
}

// Capacity returns a formatted error wrapping ErrCapacity.
func Capacity(format string, args ...any) error {
	return wrap(ErrCapacity, format, args...)
}

// Infeasible returns a formatted error wrapping ErrInfeasible.
func Infeasible(format string, args ...any) error {
	return wrap(ErrInfeasible, format, args...)
}

// Canceled classifies a context error (context.Canceled or
// context.DeadlineExceeded) as ErrCanceled while keeping the cause
// matchable: the returned error wraps both. A nil cause — a programming
// error, since callers classify ctx.Err() only after observing it
// non-nil — still yields an ErrCanceled-kinded error rather than nil,
// so a cancellation can never be silently dropped.
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// wrap builds "<message>: <kind>" with the kind wrapped, so the class
// survives any number of further %w wrappings up the call stack.
func wrap(kind error, format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), kind)
}
