package parallel

import (
	"context"
	"runtime"

	"ligra/internal/faultinject"
)

// The context-aware primitives mirror their plain counterparts with two
// contract changes that make the runtime servable:
//
//   - Cooperative cancellation: ctx is checked once per dispatched chunk,
//     so a loop over billions of iterations returns within one chunk
//     (at most `grain` iterations per worker) of ctx being cancelled.
//     The returned error is ctx.Err() (context.Canceled or
//     context.DeadlineExceeded). Iterations already started complete;
//     none are started after cancellation is observed.
//   - Panic containment: a panic in any worker is captured, the other
//     workers stop claiming chunks, and the panic is returned as a
//     *PanicError instead of re-panicking.
//
// A ctx that can never be cancelled — nil, context.Background(), or
// WithProcs over either — disables the cancellation checks and the
// per-chunk yields (see cancellable), so it costs what nil costs, but
// keeps the panic-to-error conversion.
//
// The context can additionally carry a per-call worker cap (WithProcs):
// every primitive here sizes its worker pool by CtxProcs(ctx) instead of
// the process-wide Procs().

// ForCtx is the context-aware For.
func ForCtx(ctx context.Context, n int, body func(i int)) error {
	return ForGrainCtx(ctx, n, 0, body)
}

// ForGrainCtx is the context-aware forGrain.
func ForGrainCtx(ctx context.Context, n, grain int, body func(i int)) error {
	return ForRangeGrainCtx(ctx, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRangeCtx is the context-aware ForRange.
func ForRangeCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	return ForRangeGrainCtx(ctx, n, 0, body)
}

// ForRangeGrainCtx is the context-aware forRangeGrain and the engine
// behind every parallel loop in the package. Work is dispatched onto
// the persistent worker pool (see pool.go) — no goroutines are spawned
// per call — unless the loop runs inline: procs == 1, a single chunk,
// or an auto-grain loop small enough for the sequential cutoff.
func ForRangeGrainCtx(ctx context.Context, n, grain int, body func(lo, hi int)) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	procs := CtxProcs(ctx)
	auto := grain <= 0
	if auto {
		grain = defaultGrain(n, procs)
	}
	chunks := (n + grain - 1) / grain
	if procs == 1 || chunks == 1 || (auto && n <= seqCutoff) {
		schedStats.inlineRuns.Add(1)
		if procs > 1 && chunks > 1 {
			schedStats.cutoffRuns.Add(1)
		}
		if !cancellable(ctx) {
			// No cancellation to observe: run as one chunk, preserving the
			// plain primitives' zero per-chunk overhead.
			return forSeq(nil, n, n, 1, body)
		}
		return forSeq(ctx, n, grain, chunks, body)
	}
	return runParallel(ctx, n, grain, chunks, procs, func(_, _, lo, hi int) {
		body(lo, hi)
	})
}

// forSeq runs the loop on the calling goroutine, still honouring chunk
// granularity for cancellation checks and the fault-injection hook.
func forSeq(ctx context.Context, n, grain, chunks int, body func(lo, hi int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = AsPanicError(r)
		}
	}()
	cancel := cancellable(ctx)
	for c := 0; c < chunks; c++ {
		if cancel {
			// Yield between chunks so the goroutine that cancels the
			// context (a deadline timer, a signal handler) can run even on
			// GOMAXPROCS=1, where it would otherwise wait ~10ms for the
			// runtime's forced preemption.
			if c > 0 {
				runtime.Gosched()
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		faultinject.OnChunk()
		lo := c * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		body(lo, hi)
	}
	// Match the parallel path, which reports ctx.Err() after the workers
	// drain: a cancellation raised inside the final (or only) chunk is
	// still surfaced.
	return CtxErr(ctx)
}

// doCtx is the context-aware do: thunks observed after cancellation are
// skipped (already-running ones complete), and a panic in any thunk is
// returned as a *PanicError. Thunks are dispatched onto the persistent
// worker pool; the caller always executes at least the first one.
func doCtx(ctx context.Context, thunks ...func()) error {
	if len(thunks) == 0 {
		return CtxErr(ctx)
	}
	procs := CtxProcs(ctx)
	if procs == 1 || len(thunks) == 1 {
		schedStats.inlineRuns.Add(1)
		var box panicBox
		for _, t := range thunks {
			func() {
				defer box.capture()
				if box.stopped.Load() || CtxErr(ctx) != nil {
					return
				}
				t()
			}()
		}
		if box.err != nil {
			return box.err
		}
		return CtxErr(ctx)
	}
	// One chunk per thunk; the pool's chunk loop provides the stop-on-
	// panic and skip-after-cancellation semantics.
	return runParallel(ctx, len(thunks), 1, len(thunks), procs, func(_, c, _, _ int) {
		thunks[c]()
	})
}

// reduceCtx is the context-aware reduce.
func reduceCtx[T any](ctx context.Context, n int, id T, fn func(i int) T, combine func(a, b T) T) (T, error) {
	if n <= 0 {
		return id, CtxErr(ctx)
	}
	blocks := numBlocks(n)
	partial := make([]T, blocks)
	err := ForGrainCtx(ctx, blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		acc := id
		for i := lo; i < hi; i++ {
			acc = combine(acc, fn(i))
		}
		partial[b] = acc
	})
	if err != nil {
		return id, err
	}
	acc := id
	for _, p := range partial {
		acc = combine(acc, p)
	}
	return acc, nil
}

// SumFuncCtx is the context-aware SumFunc.
func SumFuncCtx[T Number](ctx context.Context, n int, fn func(i int) T) (T, error) {
	var zero T
	return reduceCtx(ctx, n, zero, fn, func(a, b T) T { return a + b })
}

// cancellable reports whether ctx can ever be cancelled; it is the one
// test behind every cancellation check and yield in this package. nil,
// context.Background() and WithProcs over either have no Done channel, so
// loops under them run exactly as under nil; the WithProcs cap is still
// read through CtxProcs.
func cancellable(ctx context.Context) bool {
	return ctx != nil && ctx.Done() != nil
}

// CtxErr is ctx.Err() for any ctx the primitives accept: nil for a nil
// ctx or one that can never be cancelled, without asking it.
func CtxErr(ctx context.Context) error {
	if !cancellable(ctx) {
		return nil
	}
	return ctx.Err()
}
