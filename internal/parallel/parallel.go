package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// numWorkers is the number of goroutines used for parallel primitives.
// Zero means "use runtime.GOMAXPROCS(0)". It is overridable so benchmark
// harnesses can sweep worker counts without mutating GOMAXPROCS.
var numWorkers atomic.Int64

// Procs reports the number of workers parallel primitives will use.
func Procs() int {
	if p := int(numWorkers.Load()); p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// SetProcs overrides the worker count used by all primitives in this
// package. p <= 0 restores the default (GOMAXPROCS). It returns the
// previous override (0 if none was set).
func SetProcs(p int) int {
	old := int(numWorkers.Load())
	if p < 0 {
		p = 0
	}
	numWorkers.Store(int64(p))
	return old
}

// MinGrain is the smallest chunk size handed to a worker. Finer grains make
// load balancing better but increase scheduling overhead.
const MinGrain = 1

// maxGrain caps the automatic grain so very large loops still balance well.
const maxGrain = 4096

// defaultGrain picks a chunk size targeting ~8 chunks per worker, clamped to
// [MinGrain, maxGrain].
func defaultGrain(n, procs int) int {
	g := n / (8 * procs)
	if g < MinGrain {
		return MinGrain
	}
	if g > maxGrain {
		return maxGrain
	}
	return g
}

// PanicError is the typed error every primitive returns when a loop body
// panics, on a pool worker or on the calling goroutine, so recover sites
// can errors.As it.
type PanicError struct {
	// Value is the original value passed to panic.
	Value any
	// Stack is the panicking worker's stack trace (debug.Stack).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic in worker: %v", e.Value)
}

// panicBox records the first panic raised by any worker and flags the
// remaining workers to stop claiming chunks. err is written once, by the
// worker whose panic set stopped, and read after every worker has left.
type panicBox struct {
	err     *PanicError
	stopped atomic.Bool
}

func (b *panicBox) capture() {
	if r := recover(); r != nil && b.stopped.CompareAndSwap(false, true) {
		b.err = AsPanicError(r)
	}
}

// AsPanicError turns a recovered value into the *PanicError a primitive
// reports. A value that already is one — a body re-raised a nested
// primitive's error on its way out — passes through, so Value and Stack
// stay those of the original panic instead of being wrapped a second time
// at the re-panic site. Call it from the deferred function that recovered
// r: debug.Stack still sees the panicking frames there.
func AsPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// blockBounds splits [0, n) into nblocks nearly equal contiguous blocks and
// returns the bounds of block b as [lo, hi).
func blockBounds(n, nblocks, b int) (lo, hi int) {
	q, r := n/nblocks, n%nblocks
	lo = b*q + min(b, r)
	hi = lo + q
	if b < r {
		hi++
	}
	return lo, hi
}

// numBlocks picks how many blocks the two-pass primitives (scan, filter,
// reduce, counting sort) use for n elements under ctx's worker count.
func numBlocks(ctx context.Context, n int) int {
	procs := CtxProcs(ctx)
	if procs == 1 || n < 2048 {
		return 1
	}
	b := procs * 8
	if b > (n+2047)/2048 {
		b = (n + 2047) / 2048
	}
	if b < 1 {
		b = 1
	}
	return b
}
