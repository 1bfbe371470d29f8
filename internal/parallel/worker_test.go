package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForWorkerChunksCtxCoversEveryChunkOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 1000, 4096} {
		for _, grain := range []int{0, 1, 7, 64, 4096} {
			seen := make([]atomic.Int32, n)
			var chunks atomic.Int64
			err := ForWorkerChunks(nil, n, grain, func(worker, chunk, lo, hi int) {
				if worker < 0 || worker >= Procs() {
					t.Errorf("worker %d out of range", worker)
				}
				g := grain
				if g <= 0 {
					g = AutoGrain(nil, n)
					if n <= seqCutoff {
						g = n // one chunk under the cutoff
					}
				}
				if chunk != lo/g {
					t.Errorf("chunk %d does not match lo %d / grain %d", chunk, lo, g)
				}
				chunks.Add(1)
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			if err != nil {
				t.Fatalf("n=%d grain=%d: %v", n, grain, err)
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, got)
				}
			}
		}
	}
}

func TestForWorkerChunksCtxChunkOrderIsReassemblable(t *testing.T) {
	// The (chunk, lo, hi) triples must tile [0, n) in chunk order, which is
	// what the sparse edgeMap relies on to reassemble per-chunk segments
	// deterministically.
	n, grain := 1000, 64
	nchunks := (n + grain - 1) / grain
	los := make([]int, nchunks)
	his := make([]int, nchunks)
	err := ForWorkerChunks(nil, n, grain, func(_, chunk, lo, hi int) {
		los[chunk] = lo
		his[chunk] = hi
	})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for c := 0; c < nchunks; c++ {
		if los[c] != next {
			t.Fatalf("chunk %d starts at %d, want %d", c, los[c], next)
		}
		next = his[c]
	}
	if next != n {
		t.Fatalf("chunks cover [0, %d), want [0, %d)", next, n)
	}
}

func TestForWorkerChunksCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := ForWorkerChunks(ctx, 1<<20, 64, func(_, _, _, _ int) {
		if calls.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got == 1<<20/64 {
		t.Fatal("cancellation did not stop chunk dispatch")
	}
}

func TestForWorkerChunksCtxPanicContained(t *testing.T) {
	err := ForWorkerChunks(nil, 1000, 10, func(_, chunk, _, _ int) {
		if chunk == 5 {
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestAutoGrainMatchesDispatch(t *testing.T) {
	for _, n := range []int{1, 100, 4096, 1 << 20} {
		g := AutoGrain(nil, n)
		if g <= 0 {
			t.Fatalf("AutoGrain(%d) = %d", n, g)
		}
		// The first chunk dispatched with grain 0 must span exactly
		// AutoGrain(n) iterations (or all of them, under the cutoff).
		var lo0, hi0 int
		err := ForWorkerChunks(nil, n, 0, func(_, chunk, lo, hi int) {
			if chunk == 0 {
				lo0, hi0 = lo, hi
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		want := g
		if want > n || n <= seqCutoff {
			want = n
		}
		if lo0 != 0 || hi0-lo0 != want {
			t.Fatalf("n=%d: first chunk [%d, %d), want width %d", n, lo0, hi0, want)
		}
	}
}
