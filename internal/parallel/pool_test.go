package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ligra/internal/faultinject"
)

// dispatchN is an iteration count that forces the pool path under the
// TestMain GOMAXPROCS(4) setting: auto-grain, well above seqCutoff.
const dispatchN = 1 << 13

// TestPoolNoGoroutineLeak is the tentpole's acceptance check: after
// warm-up, ten thousand dispatched parallel calls neither grow the
// goroutine count nor respawn pool workers. The old implementation
// spawned procs-1 goroutines per call; this would fail immediately there.
func TestPoolNoGoroutineLeak(t *testing.T) {
	// Warm the pool so lazy worker creation happens before measuring.
	for i := 0; i < 100; i++ {
		if err := forRangeGrain(context.Background(), dispatchN, 0, func(lo, hi int) {}); err != nil {
			t.Fatal(err)
		}
	}
	workersBefore := SchedulerSnapshot().PoolWorkers
	goroutinesBefore := runtime.NumGoroutine()

	var sum atomic.Int64
	for i := 0; i < 10000; i++ {
		if err := forRangeGrain(context.Background(), dispatchN, 0, func(lo, hi int) {
			sum.Add(int64(hi - lo))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sum.Load(), int64(10000*dispatchN); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}

	if workersAfter := SchedulerSnapshot().PoolWorkers; workersAfter != workersBefore {
		t.Errorf("pool respawned or grew mid-run: %d workers before, %d after",
			workersBefore, workersAfter)
	}
	// The goroutine count is allowed small unrelated jitter (runtime
	// housekeeping, test framework) but must not scale with call count.
	// Poll briefly: a worker between wg.Done and its next park is still
	// the same goroutine, but GC/runtime goroutines may need a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= goroutinesBefore+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 10k dispatched calls",
				goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolSurvivesRepeatedPanics proves panic containment does not wedge
// the persistent workers: every panicking call returns a *PanicError
// carrying the value, and the pool still computes correctly afterward.
func TestPoolSurvivesRepeatedPanics(t *testing.T) {
	for i := 0; i < 50; i++ {
		err := forRangeGrain(context.Background(), dispatchN, 0, func(lo, hi int) {
			if lo == 0 {
				panic("pool panic probe")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("call %d: error %v (%T), want *PanicError", i, err, err)
		}
		if pe.Value != "pool panic probe" {
			t.Fatalf("call %d: panic value %v", i, pe.Value)
		}
	}
	var sum atomic.Int64
	if err := forRangeGrain(context.Background(), dispatchN, 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			sum.Add(int64(j))
		}
	}); err != nil {
		t.Fatalf("pool broken after contained panics: %v", err)
	}
	want := int64(dispatchN) * (dispatchN - 1) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

// TestPoolMidRoundCancellation cancels the context from inside a running
// chunk and checks the dispatched call stops at chunk granularity: the
// error is context.Canceled and most of the iteration space never ran.
func TestPoolMidRoundCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1 << 16
	var executed atomic.Int64
	err := forRangeGrain(ctx, n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if executed.Add(1) == 100 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got >= n/2 {
		t.Errorf("executed %d of %d iterations after cancellation", got, n)
	}
}

// TestLeaseCapThroughNestedPrimitives rides a WithProcs(2) lease through
// an outer dispatched loop whose body runs inner parallel calls: every
// worker slot observed at either level must respect the per-call cap,
// even though the process-wide setting is 4.
func TestLeaseCapThroughNestedPrimitives(t *testing.T) {
	ctx := WithProcs(context.Background(), 2)
	if got := CtxProcs(ctx); got != 2 {
		t.Fatalf("CtxProcs = %d, want 2", got)
	}
	err := ForWorkerChunks(ctx, 8, 1, func(worker, chunk, lo, hi int) {
		if worker >= 2 {
			t.Errorf("outer worker index %d under a 2-proc lease", worker)
		}
		inner := ForWorkerChunks(ctx, 2048, 64, func(w, c, ilo, ihi int) {
			if w >= 2 {
				t.Errorf("inner worker index %d under a 2-proc lease", w)
			}
		})
		if inner != nil {
			t.Errorf("inner call: %v", inner)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNestedDispatchCompletes is the deadlock regression test for token
// revocation: a dispatched outer loop whose every chunk dispatches an
// inner loop must finish even when the pool is fully occupied by outer
// work, because each caller runs its own chunk loop and revokes unclaimed
// invitations instead of blocking on them.
func TestNestedDispatchCompletes(t *testing.T) {
	var sum atomic.Int64
	err := ForWorkerChunks(context.Background(), 16, 1, func(worker, chunk, lo, hi int) {
		if err := forRangeGrain(context.Background(), dispatchN, 0, func(ilo, ihi int) {
			sum.Add(int64(ihi - ilo))
		}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.Load(), int64(16*dispatchN); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestSequentialCutoffInline checks the cutoff's observable contract:
// a small auto-grain loop runs inline (no dispatch, cutoff counted),
// while the same loop above the cutoff dispatches.
func TestSequentialCutoffInline(t *testing.T) {
	prev := SchedulerSnapshot()
	if err := forRangeGrain(context.Background(), 256, 0, func(lo, hi int) {}); err != nil {
		t.Fatal(err)
	}
	d := SchedulerSnapshot().Sub(prev)
	if d.Dispatches != 0 || d.InlineRuns != 1 || d.CutoffRuns != 1 {
		t.Errorf("small auto-grain loop: dispatches=%d inline=%d cutoff=%d, want 0/1/1",
			d.Dispatches, d.InlineRuns, d.CutoffRuns)
	}

	prev = SchedulerSnapshot()
	if err := forRangeGrain(context.Background(), dispatchN, 0, func(lo, hi int) {}); err != nil {
		t.Fatal(err)
	}
	d = SchedulerSnapshot().Sub(prev)
	if d.Dispatches != 1 || d.InlineRuns != 0 {
		t.Errorf("large auto-grain loop: dispatches=%d inline=%d, want 1/0",
			d.Dispatches, d.InlineRuns)
	}

	// An explicit grain opts out of the cutoff: the caller asserted the
	// iterations are coarse, so even a 32-iteration loop dispatches.
	prev = SchedulerSnapshot()
	if err := forRangeGrain(context.Background(), 32, 1, func(lo, hi int) {}); err != nil {
		t.Fatal(err)
	}
	d = SchedulerSnapshot().Sub(prev)
	if d.Dispatches != 1 || d.CutoffRuns != 0 {
		t.Errorf("explicit-grain loop: dispatches=%d cutoff=%d, want 1/0",
			d.Dispatches, d.CutoffRuns)
	}
}

// TestFaultInjectInPoolDispatch arms the chunk hook against a dispatched
// (pool-path) loop, proving the injection point survives the scheduler
// rewrite and surfaces as a *PanicError.
func TestFaultInjectInPoolDispatch(t *testing.T) {
	disarm := faultinject.PanicOnChunk(5, "injected pool fault")
	defer disarm()
	err := forRangeGrain(context.Background(), 1<<14, 16, func(lo, hi int) {})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "injected pool fault" {
		t.Errorf("panic value = %v", pe.Value)
	}
}
