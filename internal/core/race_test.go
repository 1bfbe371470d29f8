//go:build race

package core

// raceEnabled reports a -race build: the detector's instrumentation
// allocates, and sync.Pool drops a share of Puts on purpose, so
// allocation counts measure the detector, not the code.
const raceEnabled = true
