// Package parallel provides the nested-parallel primitives that the rest of
// the framework is written against: parallel loops, reductions, prefix sums
// (scans), filtering/packing, and parallel sorting.
//
// Ligra (Shun & Blelloch, PPoPP 2013) is implemented on top of a Cilk-style
// work-stealing runtime with parallel_for, plus the sequence primitives of
// the PBBS library (reduce, scan, filter, pack). This package plays that
// role for the Go port. Loops are executed by a pool of goroutines (one per
// GOMAXPROCS by default) that claim fixed-size chunks of the iteration space
// from a shared atomic counter, which gives dynamic load balancing similar
// to work stealing for the irregular loops that dominate graph traversal.
//
// All primitives fall back to plain sequential execution when the iteration
// space is small or when only one worker is configured, so they can be used
// unconditionally without branching at call sites.
//
// Every primitive takes the context it runs under first and returns an
// error: the context's worker cap and deadline reach every loop, and a
// panic raised inside a loop body comes back as a *PanicError once all
// workers have stopped (see ctx.go).
package parallel
