package parallel

import (
	"context"
	"runtime"

	"ligra/internal/faultinject"
)

// AutoGrain returns the chunk size the For-family primitives select
// automatically for an n-iteration loop, so callers that need to know the
// chunk structure up front (e.g. to allocate per-chunk output slots) can
// reproduce it.
func AutoGrain(n int) int {
	return defaultGrain(n, Procs())
}

// ForWorkerChunksCtx dispatches the contiguous chunks of [0, n) dynamically
// to workers like ForRangeGrainCtx, additionally passing the executing
// worker's index (in [0, CtxProcs(ctx))) and the chunk's index (lo/grain)
// to the body. grain <= 0 selects the automatic size (AutoGrainCtx).
//
// The worker index enables contention-free per-worker accumulators: each
// worker runs at most one chunk at a time, so state keyed by the worker
// index is accessed by a single goroutine for the duration of the call.
// The chunk index lets callers reassemble per-chunk results in input order
// afterward, preserving determinism despite dynamic chunk claiming. Each
// chunk index in [0, ceil(n/grain)) is passed to the body exactly once
// (unless the call aborts early on cancellation or panic, in which case
// some chunks are never dispatched and an error is returned).
//
// Cancellation and panic semantics match ForRangeGrainCtx: ctx (nil =
// background) is observed at chunk granularity, and a worker panic is
// returned as a *PanicError.
func ForWorkerChunksCtx(ctx context.Context, n, grain int, body func(worker, chunk, lo, hi int)) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
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
		return forWorkerSeq(ctx, n, grain, chunks, body)
	}
	return runParallel(ctx, n, grain, chunks, procs, body)
}

// forWorkerSeq runs every chunk on the calling goroutine as worker 0,
// honouring chunk granularity for cancellation checks.
func forWorkerSeq(ctx context.Context, n, grain, chunks int, body func(worker, chunk, lo, hi int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = AsPanicError(r)
		}
	}()
	for c := 0; c < chunks; c++ {
		if ctx != nil {
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
		body(0, c, lo, hi)
	}
	// Match ForRangeGrainCtx: surface a cancellation raised inside the
	// final (or only) chunk.
	return ctxErr(ctx)
}
