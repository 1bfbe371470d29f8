package parallel

import (
	"context"
	"runtime"

	"ligra/internal/faultinject"
)

// AutoGrain returns the chunk size the loops select automatically for an
// n-iteration loop under ctx's worker count, so callers that need to know
// the chunk structure up front (e.g. to allocate per-chunk output slots)
// agree with what the dispatch will do.
func AutoGrain(ctx context.Context, n int) int {
	return defaultGrain(n, CtxProcs(ctx))
}

// ForWorkerChunks is the engine behind every loop in the package. It
// dispatches the contiguous chunks of [0, n) dynamically to at most
// CtxProcs(ctx) workers, passing the body the executing worker's index (in
// [0, CtxProcs(ctx))) and the chunk's index (lo/grain). grain <= 0 selects
// the automatic size (AutoGrain). Work runs on the persistent worker pool
// (see pool.go) — no goroutines are spawned per call — unless the loop
// runs inline on the caller: one worker, one chunk, or an auto-grain loop
// at or under the sequential cutoff, which runs as a single chunk whatever
// its ctx.
//
// The worker index enables contention-free per-worker accumulators: each
// worker runs at most one chunk at a time, so state keyed by the worker
// index is accessed by a single goroutine for the duration of the call.
// The chunk index lets callers reassemble per-chunk results in input order
// afterward, preserving determinism despite dynamic chunk claiming. With an
// explicit grain, each chunk index in [0, ceil(n/grain)) is passed to the
// body exactly once (unless the call aborts early on cancellation or
// panic, in which case some chunks are never dispatched and an error is
// returned).
func ForWorkerChunks(ctx context.Context, n, grain int, body func(worker, chunk, lo, hi int)) error {
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
		if auto && n <= seqCutoff {
			// Too short for a check per chunk to pay: one chunk, with ctx
			// checked before it (above) and after it (result).
			if procs > 1 && chunks > 1 {
				schedStats.cutoffRuns.Add(1)
			}
			grain, chunks = n, 1
		}
		return runInline(ctx, n, grain, chunks, body)
	}
	return runParallel(ctx, n, grain, chunks, procs, body)
}

// runInline is the pool's chunk loop (job.run) for a caller with no
// helpers, as worker 0, without the claim counter and panic box a shared
// loop needs: the same ctx checks between chunks — yielding first, only
// on single-P runtimes — fault-injection hook and panic containment.
func runInline(ctx context.Context, n, grain, chunks int, body func(worker, chunk, lo, hi int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = AsPanicError(r)
		}
	}()
	cancel := cancellable(ctx)
	yield := cancel && runtime.GOMAXPROCS(0) == 1
	for c := 0; c < chunks; c++ {
		if cancel && c > 0 {
			if yield {
				runtime.Gosched()
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		faultinject.OnChunk()
		lo := c * grain
		body(0, c, lo, min(lo+grain, n))
	}
	return CtxErr(ctx)
}
