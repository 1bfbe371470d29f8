package parallel

import (
	"os"
	"sync/atomic"
	"testing"
)

// TestMain forces multiple workers so the concurrent code paths run even on
// single-CPU machines (goroutines still interleave).
func TestMain(m *testing.M) {
	SetProcs(4)
	os.Exit(m.Run())
}

func TestProcsOverride(t *testing.T) {
	old := SetProcs(7)
	if got := Procs(); got != 7 {
		t.Errorf("Procs() = %d, want 7", got)
	}
	SetProcs(0)
	if got := Procs(); got < 1 {
		t.Errorf("Procs() = %d, want >= 1 with default", got)
	}
	SetProcs(old)
	SetProcs(4)
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 4097, 100000} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
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
		ForGrain(n, grain, func(i int) { atomic.AddInt32(&seen[i], 1) })
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
	ForRange(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad range [%d, %d)", lo, hi)
		}
		total.Add(int64(hi - lo))
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
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
	For(0, func(int) { called = true })
	For(-5, func(int) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate from worker")
		}
	}()
	For(100000, func(i int) {
		if i == 54321 {
			panic("boom")
		}
	})
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	Do(
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() { c.Store(3) },
	)
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Errorf("Do results = %d %d %d", a.Load(), b.Load(), c.Load())
	}
	Do() // no-op
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Error("single-thunk Do did not run")
	}
}

func TestDoPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate from Do")
		}
	}()
	Do(func() {}, func() { panic("boom") })
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
