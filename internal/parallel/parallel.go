package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
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

// PanicError is the typed error produced when a worker goroutine panics
// inside a parallel primitive. The context-aware primitives (ForCtx,
// SumFuncCtx, ...) return it; the plain primitives re-panic with it as the
// panic value, so recover sites can errors.As it either way.
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
// remaining workers to stop claiming chunks.
type panicBox struct {
	once    sync.Once
	err     *PanicError
	stopped atomic.Bool
}

func (b *panicBox) capture() {
	if r := recover(); r != nil {
		b.once.Do(func() { b.err = AsPanicError(r) })
		b.stopped.Store(true)
	}
}

// AsPanicError turns a recovered value into the *PanicError a primitive
// reports. A value that already is one — a nested plain primitive re-raised
// it on its way out — passes through, so Value and Stack stay those of the
// original panic instead of being wrapped a second time at the re-panic
// site. Call it from the deferred function that recovered r: debug.Stack
// still sees the panicking frames there.
func AsPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// For runs body(i) for every i in [0, n) using all configured workers and an
// automatically chosen grain size.
func For(n int, body func(i int)) {
	forGrain(n, 0, body)
}

// forGrain runs body(i) for every i in [0, n). Iterations are dispatched to
// workers in contiguous chunks of the given grain size; grain <= 0 selects
// an automatic value. Chunks are claimed dynamically, so uneven per-
// iteration costs (e.g. skewed vertex degrees) still balance.
func forGrain(n, grain int, body func(i int)) {
	forRangeGrain(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange runs body over contiguous sub-ranges [lo, hi) that exactly cover
// [0, n). It is the blocked form of For, useful when the body can process a
// run of iterations more efficiently than one at a time.
func ForRange(n int, body func(lo, hi int)) {
	forRangeGrain(n, 0, body)
}

// forRangeGrain is ForRange with an explicit grain size (grain <= 0 selects
// an automatic value). A worker panic propagates as a panic whose value is a
// *PanicError; ForRangeGrainCtx is the variant that returns it instead.
func forRangeGrain(n, grain int, body func(lo, hi int)) {
	if err := ForRangeGrainCtx(nil, n, grain, body); err != nil {
		panic(err)
	}
}

// do runs the given thunks concurrently and waits for all of them; it is the
// binary/spawn form of fork-join parallelism (Cilk's spawn/sync). A panic in
// any thunk propagates with a *PanicError value once all thunks settle.
func do(thunks ...func()) {
	switch len(thunks) {
	case 0:
		return
	case 1:
		thunks[0]()
		return
	}
	if err := doCtx(nil, thunks...); err != nil {
		panic(err)
	}
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

// numBlocks picks how many blocks two-pass primitives (scan, filter) use.
func numBlocks(n int) int {
	procs := Procs()
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
