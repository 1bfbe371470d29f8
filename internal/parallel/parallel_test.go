package parallel

import (
	"context"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMain forces multiple workers so the concurrent code paths run even on
// single-CPU machines (goroutines still interleave).
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(4)
	os.Exit(m.Run())
}

// bg is the context of loops that have nothing to observe.
var bg = context.Background()

// must returns v, failing the calling test (by panicking) on err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// ok panics on a loop error, for calls with no value.
func ok(err error) {
	if err != nil {
		panic(err)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 4097, 100000} {
		seen := make([]int32, n)
		ok(For(bg, n, func(i int) { atomic.AddInt32(&seen[i], 1) }))
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForGrainCoversAllIndices(t *testing.T) {
	for _, grain := range []int{1, 2, 13, 4096, 1 << 20} {
		n := 10000
		seen := make([]int32, n)
		ok(forRangeGrain(bg, n, grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		}))
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("grain=%d: index %d visited %d times", grain, i, c)
			}
		}
	}
}

func TestForRangePartitions(t *testing.T) {
	n := 54321
	var total atomic.Int64
	seen := make([]int32, n)
	ok(ForRange(bg, n, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad range [%d, %d)", lo, hi)
		}
		total.Add(int64(hi - lo))
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	}))
	if total.Load() != int64(n) {
		t.Fatalf("ranges cover %d elements, want %d", total.Load(), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestForNegativeAndZero(t *testing.T) {
	called := false
	ok(For(bg, 0, func(int) { called = true }))
	ok(For(bg, -5, func(int) { called = true }))
	if called {
		t.Error("body called for empty range")
	}
}

func TestForPanicPropagates(t *testing.T) {
	err := For(bg, 100000, func(i int) {
		if i == 54321 {
			panic("boom")
		}
	})
	if pe, ok := err.(*PanicError); !ok || pe.Value != "boom" {
		t.Fatalf("err = %v, want the worker's panic as a *PanicError", err)
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	ok(do(bg,
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() { c.Store(3) },
	))
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Errorf("do results = %d %d %d", a.Load(), b.Load(), c.Load())
	}
	ok(do(bg)) // no-op
	ran := false
	ok(do(bg, func() { ran = true }))
	if !ran {
		t.Error("single-thunk do did not run")
	}
}

func TestDoPanicPropagates(t *testing.T) {
	if _, ok := do(bg, func() {}, func() { panic("boom") }).(*PanicError); !ok {
		t.Fatal("panic did not propagate from do")
	}
}

func TestBlockBounds(t *testing.T) {
	for _, tc := range []struct{ n, blocks int }{
		{10, 3}, {10, 10}, {10, 1}, {7, 4}, {1000, 13},
	} {
		prev := 0
		for b := 0; b < tc.blocks; b++ {
			lo, hi := blockBounds(tc.n, tc.blocks, b)
			if lo != prev {
				t.Fatalf("n=%d blocks=%d: block %d starts at %d, want %d",
					tc.n, tc.blocks, b, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d blocks=%d: block %d empty-inverted [%d,%d)",
					tc.n, tc.blocks, b, lo, hi)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d blocks=%d: blocks end at %d", tc.n, tc.blocks, prev)
		}
	}
}
