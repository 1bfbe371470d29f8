package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"ligra/internal/faultinject"
)

func TestForCtxNilContextCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 100, 4097} {
		var count atomic.Int64
		if err := ForCtx(nil, n, func(i int) { count.Add(1) }); err != nil {
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
	err := ForCtx(ctx, 1000, func(i int) { count.Add(1) })
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
	err := ForGrainCtx(ctx, n, 64, func(i int) {
		if count.Add(1) == 10 {
			cancel()
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
	err := ForCtx(nil, 1000, func(i int) {
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

func TestForRepanicsWithTypedPanicError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("For did not propagate the worker panic")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if pe.Value != "typed" {
			t.Errorf("PanicError.Value = %v, want %q", pe.Value, "typed")
		}
	}()
	For(100, func(i int) {
		if i == 42 {
			panic("typed")
		}
	})
}

func TestForCtxSequentialPathPanic(t *testing.T) {
	// procs=1 forces the sequential path; panics must still convert.
	prev := SetProcs(1)
	defer SetProcs(prev)
	err := ForCtx(context.Background(), 10, func(i int) {
		if i == 3 {
			panic("seq boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestDoCtx(t *testing.T) {
	var a, b atomic.Bool
	if err := DoCtx(nil, func() { a.Store(true) }, func() { b.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !a.Load() || !b.Load() {
		t.Error("DoCtx skipped a thunk")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := DoCtx(ctx, func() {}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled DoCtx err = %v", err)
	}
}

func TestReduceAndSumCtx(t *testing.T) {
	got, err := SumFuncCtx(nil, 1000, func(i int) int64 { return int64(i) })
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(999 * 1000 / 2); got != want {
		t.Errorf("SumFuncCtx = %d, want %d", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SumFuncCtx(ctx, 1000, func(i int) int64 { return 1 }); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled SumFuncCtx err = %v", err)
	}
}

func TestFaultInjectPanicOnChunkSurfacesAsPanicError(t *testing.T) {
	disarm := faultinject.PanicOnChunk(2, "injected chunk fault")
	defer disarm()
	err := ForGrainCtx(context.Background(), 10000, 16, func(i int) {})
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
	err := ForCtx(ctx, 100, func(i int) {})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// nestedBoom is the origin frame TestNestedPanicKeepsOrigin looks for.
func nestedBoom() { panic("boom") }

// TestNestedPanicKeepsOrigin: a plain primitive inside a ctx-aware body
// re-panics with the *PanicError it built; the outer primitive must hand
// that error on — original value, stack of the origin — not wrap it in a
// second one whose stack is the re-panic site. Every capture site is
// covered: forSeq and forWorkerSeq (inline), panicBox (dispatched).
func TestNestedPanicKeepsOrigin(t *testing.T) {
	ctx := context.Background()
	for _, innerN := range []int{8, dispatchN} {
		body := func() {
			For(innerN, func(i int) {
				if i == 3 {
					nestedBoom()
				}
			})
		}
		for name, run := range map[string]func() error{
			"ForCtx/inline":                 func() error { return ForCtx(ctx, 4, func(int) { body() }) },
			"ForCtx/dispatched":             func() error { return ForGrainCtx(ctx, 64, 1, func(int) { body() }) },
			"ForWorkerChunksCtx/inline":     func() error { return ForWorkerChunksCtx(ctx, 4, 4, func(_, _, _, _ int) { body() }) },
			"ForWorkerChunksCtx/dispatched": func() error { return ForWorkerChunksCtx(ctx, 64, 1, func(_, _, _, _ int) { body() }) },
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
