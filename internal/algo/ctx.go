package algo

import (
	"context"
	"fmt"

	"ligra/internal/parallel"
)

// RoundError is the error returned by the algorithms' Ctx entry points
// when a run is interrupted: it records which algorithm stopped and after
// how many completed rounds, and wraps the cause — context.Canceled,
// context.DeadlineExceeded, or a *parallel.PanicError from a contained
// worker panic — so errors.Is / errors.As see through it.
//
// Every entry point that returns a *RoundError also returns a usable
// partial result reflecting all rounds completed before the interruption
// (see each algorithm's documentation for its partial-result contract).
// Two rules hold for all of them. Their arrays hold at least their
// initial state, even under a ctx cancelled on entry (see fill). And
// totals taken over the partial state after the interruption (component
// counts, maxima, reach counts) stop short with the interrupted ctx, so
// they may read low or 0.
type RoundError struct {
	// Algo names the interrupted algorithm ("bfs", "pagerank", ...).
	Algo string
	// Round is the number of fully completed rounds (iterations) before
	// the interruption; the partial result reflects exactly these rounds
	// plus any writes the aborted round had already applied.
	Round int
	// Err is the underlying cause.
	Err error
}

func (e *RoundError) Error() string {
	return fmt.Sprintf("algo: %s interrupted after round %d: %v", e.Algo, e.Round, e.Err)
}

func (e *RoundError) Unwrap() error { return e.Err }

// roundErr wraps a non-nil interruption cause; nil passes through.
func roundErr(name string, round int, err error) error {
	if err == nil {
		return nil
	}
	return &RoundError{Algo: name, Round: round, Err: err}
}

// detached is the ctx of a pass that commits a round's result into the
// state a partial result reports: ctx's worker cap without its
// cancellation, so the pass runs to its end and an interruption never
// leaves that state half-written. nil stays nil (no deadline).
func detached(ctx context.Context) context.Context {
	if ctx == nil {
		return nil
	}
	return context.WithoutCancel(ctx)
}

// fill sets every element of s to v: the initial state of an array a
// partial result reports. The parallel pass observes ctx like any other,
// and whatever it left unset when ctx stopped it — all of s under a ctx
// cancelled on entry, which dispatches nothing — is set on the calling
// goroutine before the error is returned.
func fill[T any](ctx context.Context, s []T, v T) error {
	err := parallel.Fill(ctx, s, v)
	if err != nil {
		for i := range s {
			s[i] = v
		}
	}
	return err
}
