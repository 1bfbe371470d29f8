package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ligra/internal/faultinject"
)

func TestForCtxNilContextCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 100, 4097} {
		var count atomic.Int64
		if err := For(nil, n, func(i int) { count.Add(1) }); err != nil {
			t.Fatalf("n=%d: unexpected error %v", n, err)
		}
		if int(count.Load()) != n {
			t.Fatalf("n=%d: body ran %d times", n, count.Load())
		}
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var count atomic.Int64
	err := For(ctx, 1000, func(i int) { count.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count.Load() != 0 {
		t.Errorf("body ran %d times on a pre-cancelled context", count.Load())
	}
}

func TestForCtxMidLoopCancelStopsWithinChunks(t *testing.T) {
	// Cancel from inside the body: later chunks must not be dispatched, so
	// far fewer than n iterations run (each chunk is bounded).
	const n = 1 << 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var count atomic.Int64
	err := forRangeGrain(ctx, n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if count.Add(1) == 10 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := count.Load(); got == n {
		t.Errorf("all %d iterations ran despite mid-loop cancel", n)
	}
}

func TestForCtxReturnsPanicError(t *testing.T) {
	err := For(nil, 1000, func(i int) {
		if i == 500 {
			panic("boom at 500")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "boom at 500" {
		t.Errorf("PanicError.Value = %v, want the original panic value", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
	if !strings.Contains(pe.Error(), "boom at 500") {
		t.Errorf("Error() = %q, does not mention the panic value", pe.Error())
	}
}

func TestForCtxSequentialPathPanic(t *testing.T) {
	// procs=1 forces the sequential path; panics must still convert.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	err := For(context.Background(), 10, func(i int) {
		if i == 3 {
			panic("seq boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

// TestUncancellableCtxCostsWhatNilDoes: a ctx that can never be cancelled
// runs a loop exactly as nil does — the same chunks, with no check and no
// yield between them — while a WithProcs cap on it is still honoured.
func TestUncancellableCtxCostsWhatNilDoes(t *testing.T) {
	// Inline by a one-worker cap, with an explicit grain of 100 chunks.
	prev := runtime.GOMAXPROCS(1)
	want := rangeCalls(t, nil, 1000, 10)
	runtime.GOMAXPROCS(prev)
	if got := rangeCalls(t, WithProcs(bg, 1), 1000, 10); got != want {
		t.Errorf("one-worker loop under WithProcs(Background, 1): %d body calls, nil makes %d", got, want)
	}
	if CtxProcs(WithProcs(bg, 1)) != 1 {
		t.Error("WithProcs cap lost on an uncancellable ctx")
	}
}

// TestSmallLoopIsOneChunkWhateverItsCtx: an auto-grain loop at or under
// the sequential cutoff runs as a single chunk under every ctx — a
// deadline adds a check before and after, not one check and one yield per
// chunk — so a vertex phase over a small frontier costs the same under a
// query's deadline as under none.
func TestSmallLoopIsOneChunkWhateverItsCtx(t *testing.T) {
	deadline, cancel := context.WithTimeout(bg, time.Hour)
	defer cancel()
	for name, ctx := range map[string]context.Context{
		"nil": nil, "Background": bg, "WithProcs(Background, 1)": WithProcs(bg, 1),
		"WithTimeout": deadline, "WithProcs(WithTimeout, 1)": WithProcs(deadline, 1),
	} {
		if got := rangeCalls(t, ctx, seqCutoff, 0); got != 1 {
			t.Errorf("cutoff loop under %s: %d body calls, want 1", name, got)
		}
	}
}

// rangeCalls counts the chunks a forRangeGrain call hands its body.
func rangeCalls(t *testing.T, ctx context.Context, n, grain int) int {
	t.Helper()
	c := 0
	if err := forRangeGrain(ctx, n, grain, func(lo, hi int) { c++ }); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDoCtx(t *testing.T) {
	var a, b atomic.Bool
	if err := do(nil, func() { a.Store(true) }, func() { b.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !a.Load() || !b.Load() {
		t.Error("do skipped a thunk")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := do(ctx, func() {}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled do err = %v", err)
	}
}

func TestReduceAndSumCtx(t *testing.T) {
	got, err := SumFunc(nil, 1000, func(i int) int64 { return int64(i) })
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(999 * 1000 / 2); got != want {
		t.Errorf("SumFunc = %d, want %d", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SumFunc(ctx, 1000, func(i int) int64 { return 1 }); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled SumFunc err = %v", err)
	}
}

func TestFaultInjectPanicOnChunkSurfacesAsPanicError(t *testing.T) {
	disarm := faultinject.PanicOnChunk(2, "injected chunk fault")
	defer disarm()
	err := forRangeGrain(context.Background(), 10000, 16, func(lo, hi int) {})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError from injected fault", err)
	}
	if pe.Value != "injected chunk fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
}

func TestForCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	err := For(ctx, 100, func(i int) {})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// nestedBoom is the origin frame TestNestedPanicKeepsOrigin looks for.
func nestedBoom() { panic("boom") }

// TestNestedPanicKeepsOrigin: a body re-panics with the *PanicError a
// nested loop returned; the outer loop must hand that error on — original
// value, stack of the origin — not wrap it in a second one whose stack is
// the re-panic site. Both capture paths are covered: the caller's own
// chunk loop (inline) and the pool's (dispatched).
func TestNestedPanicKeepsOrigin(t *testing.T) {
	ctx := context.Background()
	for _, innerN := range []int{8, dispatchN} {
		body := func() {
			ok(For(ctx, innerN, func(i int) {
				if i == 3 {
					nestedBoom()
				}
			}))
		}
		for name, run := range map[string]func() error{
			"For/inline":                 func() error { return For(ctx, 4, func(int) { body() }) },
			"forRangeGrain/dispatched":   func() error { return forRangeGrain(ctx, 64, 1, func(int, int) { body() }) },
			"ForWorkerChunks/inline":     func() error { return ForWorkerChunks(ctx, 4, 4, func(_, _, _, _ int) { body() }) },
			"ForWorkerChunks/dispatched": func() error { return ForWorkerChunks(ctx, 64, 1, func(_, _, _, _ int) { body() }) },
		} {
			err := run()
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s/inner=%d: err = %v (%T), want *PanicError", name, innerN, err, err)
			}
			if pe.Value != "boom" {
				t.Errorf("%s/inner=%d: Value = %v (%T), want the original \"boom\"", name, innerN, pe.Value, pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "nestedBoom") {
				t.Errorf("%s/inner=%d: Stack does not reach the origin frame:\n%s", name, innerN, pe.Stack)
			}
		}
	}
}
