package algo

import "fmt"

// RoundError is the error returned by the algorithms' Ctx entry points
// when a run is interrupted: it records which algorithm stopped and after
// how many completed rounds, and wraps the cause — context.Canceled,
// context.DeadlineExceeded, or a *parallel.PanicError from a contained
// worker panic — so errors.Is / errors.As see through it.
//
// Every Ctx entry point that returns a *RoundError also returns a usable
// partial result reflecting all rounds completed before the interruption
// (see each algorithm's documentation for its partial-result contract).
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

// must serves the algorithms without a ctx: a run under an uncancellable
// context can only fail with a contained worker panic, which it re-raises
// as the package's plain parallel loops do.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
