package bench

import (
	"sort"
	"time"
)

// Timing summarizes repeated measurements of one operation.
type Timing struct {
	Rounds int
	Min    time.Duration
	Median time.Duration
	Max    time.Duration
}

// Measure runs fn rounds times and reports min/median/max wall time.
// rounds < 1 is treated as 1.
func Measure(rounds int, fn func()) Timing {
	if rounds < 1 {
		rounds = 1
	}
	ds := make([]time.Duration, rounds)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return Timing{
		Rounds: rounds,
		Min:    ds[0],
		Median: ds[rounds/2],
		Max:    ds[rounds-1],
	}
}

// must unwraps a measured run — an algorithm or a parallel pass. The
// harness passes no deadline, so the only possible error is a contained
// worker panic, which it re-raises as the panic it was.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
