package parallel

import "context"

// One calling convention: every primitive in this package takes the
// context it runs under as its first argument and returns an error. The
// context carries two things into every loop:
//
//   - The worker cap (WithProcs): a loop uses at most CtxProcs(ctx)
//     workers, so the lease a server grants one query bounds every pass
//     of it — edgeMap rounds and the vertex phases between them alike.
//   - Cooperative cancellation: ctx is checked at chunk granularity, so a
//     loop over billions of iterations returns within one chunk (at most
//     `grain` iterations per worker) of ctx being cancelled. The returned
//     error is ctx.Err() (context.Canceled or context.DeadlineExceeded).
//     Iterations already started complete; none are started after
//     cancellation is observed, and none at all under a ctx cancelled on
//     entry.
//
// A panic in any loop body is captured, the other workers stop claiming
// chunks, and the panic is returned as a *PanicError.
//
// A ctx that can never be cancelled — nil, context.Background(), or
// WithProcs over either — disables the cancellation checks and the
// per-chunk yields (see cancellable), so it costs what nil costs; code
// with no deadline to observe (graph construction, the generators) passes
// context.Background(). An auto-grain loop at or under the sequential
// cutoff runs as one chunk whatever its ctx, checking it once before and
// once after (see ForWorkerChunks).

// For runs body(i) for every i in [0, n) with an automatically chosen
// grain. Chunks are claimed dynamically, so uneven per-iteration costs
// (e.g. skewed vertex degrees) still balance.
func For(ctx context.Context, n int, body func(i int)) error {
	return ForWorkerChunks(ctx, n, 0, func(_, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange runs body over contiguous sub-ranges [lo, hi) that exactly
// cover [0, n), with an automatically chosen grain. It is the blocked form
// of For, useful when the body can process a run of iterations more
// efficiently than one at a time.
func ForRange(ctx context.Context, n int, body func(lo, hi int)) error {
	return forRangeGrain(ctx, n, 0, body)
}

// forRangeGrain is ForRange with an explicit grain (grain <= 0 selects the
// automatic one): ForWorkerChunks for a body that needs neither the worker
// nor the chunk index.
func forRangeGrain(ctx context.Context, n, grain int, body func(lo, hi int)) error {
	return ForWorkerChunks(ctx, n, grain, func(_, _, lo, hi int) { body(lo, hi) })
}

// sequential runs fn as one chunk on the calling goroutine: the one-block
// path of the two-pass primitives, under the same ctx checks, fault hook
// and panic containment as any loop.
func sequential(ctx context.Context, fn func()) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	return runInline(ctx, 1, 1, 1, func(_, _, _, _ int) { fn() })
}

// do runs the given thunks as one fork-join (Cilk's spawn/sync), one chunk
// per thunk, and waits for all of them. The caller always executes at
// least the first; thunks observed after cancellation are skipped
// (already-running ones complete), and a panic in any thunk is returned as
// a *PanicError once all settle.
func do(ctx context.Context, thunks ...func()) error {
	return ForWorkerChunks(ctx, len(thunks), 1, func(_, c, _, _ int) { thunks[c]() })
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
