package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// Procs reports the number of workers parallel primitives use under an
// uncapped context: GOMAXPROCS. WithProcs caps it per call.
func Procs() int { return runtime.GOMAXPROCS(0) }

// minGrain is the smallest chunk size handed to a worker. Finer grains make
// load balancing better but increase scheduling overhead.
const minGrain = 1

// maxGrain caps the automatic grain so very large loops still balance well.
const maxGrain = 4096

// defaultGrain picks a chunk size targeting ~8 chunks per worker, clamped to
// [minGrain, maxGrain].
func defaultGrain(n, procs int) int {
	g := n / (8 * procs)
	if g < minGrain {
		return minGrain
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
