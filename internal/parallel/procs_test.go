package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// highWater tracks the peak number of concurrently executing bodies.
type highWater struct {
	cur, peak atomic.Int64
}

func (h *highWater) enter() {
	c := h.cur.Add(1)
	for {
		p := h.peak.Load()
		if c <= p || h.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (h *highWater) exit() { h.cur.Add(-1) }

func TestWithProcsCapsForCtxConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	var hw highWater
	ctx := WithProcs(context.Background(), 2)
	err := forRangeGrain(ctx, 64, 1, func(lo, hi int) {
		hw.enter()
		time.Sleep(100 * time.Microsecond) // encourage overlap if uncapped
		hw.exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak := hw.peak.Load(); peak > 2 {
		t.Errorf("WithProcs(2): observed %d concurrent workers", peak)
	}
}

func TestWithProcsCapsWorkerIndices(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	ctx := WithProcs(context.Background(), 3)
	if got := CtxProcs(ctx); got != 3 {
		t.Fatalf("CtxProcs = %d, want 3", got)
	}
	var maxWorker atomic.Int64
	err := ForWorkerChunks(ctx, 1000, 10, func(worker, _, _, _ int) {
		for {
			m := maxWorker.Load()
			if int64(worker) <= m || maxWorker.CompareAndSwap(m, int64(worker)) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := maxWorker.Load(); m >= 3 {
		t.Errorf("worker index %d observed under WithProcs(3)", m)
	}
}

func TestCtxProcsComposesWithGlobal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	// A cap above the global setting does not raise it.
	if got := CtxProcs(WithProcs(context.Background(), 16)); got != 2 {
		t.Errorf("CtxProcs(cap 16, global 2) = %d, want 2", got)
	}
	// Nil and uncapped contexts inherit the global setting.
	if got := CtxProcs(nil); got != 2 {
		t.Errorf("CtxProcs(nil) = %d, want 2", got)
	}
	if got := CtxProcs(context.Background()); got != 2 {
		t.Errorf("CtxProcs(background) = %d, want 2", got)
	}
	// p <= 0 means no cap.
	if got := CtxProcs(WithProcs(context.Background(), 0)); got != 2 {
		t.Errorf("CtxProcs(cap 0) = %d, want 2", got)
	}
	// Nesting keeps the innermost cap.
	inner := WithProcs(WithProcs(context.Background(), 2), 1)
	if got := CtxProcs(inner); got != 1 {
		t.Errorf("nested CtxProcs = %d, want 1", got)
	}
}

func TestWithProcsOneRunsSequentially(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	var hw highWater
	ctx := WithProcs(context.Background(), 1)
	err := For(ctx, 256, func(i int) {
		hw.enter()
		hw.exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak := hw.peak.Load(); peak != 1 {
		t.Errorf("WithProcs(1): observed %d concurrent workers, want 1", peak)
	}
	// AutoGrain agrees with the capped dispatch (one chunk per 8th of the
	// loop at procs=1 means a larger grain than at procs=8).
	if g1, g8 := AutoGrain(ctx, 1<<16), AutoGrain(context.Background(), 1<<16); g1 < g8 {
		t.Errorf("AutoGrain capped=%d uncapped=%d; capped should not be finer", g1, g8)
	}
}

func TestWithProcsDoCtx(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	// With a cap of 1, do must run thunks on the calling goroutine in
	// order.
	var order []int
	ctx := WithProcs(context.Background(), 1)
	err := do(ctx,
		func() { order = append(order, 0) },
		func() { order = append(order, 1) },
		func() { order = append(order, 2) },
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("do under cap 1 ran out of order: %v", order)
		}
	}
}
