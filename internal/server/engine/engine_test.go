package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ligra/internal/parallel"
)

func testKey(graph string, gen uint64, params string) Key {
	return Key{Graph: graph, Generation: gen, Algo: "bfs", Params: params}
}

func TestExecuteCachesSuccessfulResults(t *testing.T) {
	e := New(NewCache(1<<20), NewGovernor(4, 2))
	k := testKey("g", 1, "source=0")
	var runs atomic.Int64
	run := func(ctx context.Context, procs int) (Value, error) {
		runs.Add(1)
		return Value{Data: "result", Bytes: 64}, nil
	}

	v, info, err := e.Execute(context.Background(), k, run)
	if err != nil || v.Data != "result" {
		t.Fatalf("first Execute: v=%v err=%v", v, err)
	}
	if info.Cached || info.Coalesced {
		t.Errorf("first Execute should run: info=%+v", info)
	}
	v, info, err = e.Execute(context.Background(), k, run)
	if err != nil || v.Data != "result" {
		t.Fatalf("second Execute: v=%v err=%v", v, err)
	}
	if !info.Cached {
		t.Errorf("second Execute should be cached: info=%+v", info)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runner invoked %d times, want 1", got)
	}
	if s := e.Snapshot(); s.Cache.Hits != 1 || s.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", s.Cache)
	}
}

func TestExecuteDoesNotCacheErrors(t *testing.T) {
	e := New(NewCache(1<<20), NewGovernor(4, 2))
	k := testKey("g", 1, "source=0")
	var runs atomic.Int64
	boom := errors.New("partial")
	for i := 0; i < 2; i++ {
		_, _, err := e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
			runs.Add(1)
			return Value{Data: "partial"}, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("failed result was cached: %d runs, want 2", got)
	}
}

// TestExecuteCoalescesIdenticalConcurrentQueries is the acceptance test
// for single-flight: N identical concurrent queries invoke the runner
// exactly once and all observe the same result.
func TestExecuteCoalescesIdenticalConcurrentQueries(t *testing.T) {
	e := New(nil, NewGovernor(4, 2)) // cache off: coalescing must stand alone
	k := testKey("g", 1, "source=0")

	const n = 16
	var runs atomic.Int64
	entered := make(chan struct{})
	finish := make(chan struct{})
	run := func(ctx context.Context, procs int) (Value, error) {
		runs.Add(1)
		close(entered)
		<-finish
		return Value{Data: "shared", Bytes: 8}, nil
	}

	var wg sync.WaitGroup
	results := make([]Value, n)
	infos := make([]Info, n)
	errs := make([]error, n)

	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], infos[0], errs[0] = e.Execute(context.Background(), k, run)
	}()
	<-entered // the leader is inside the runner; followers must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], infos[i], errs[i] = e.Execute(context.Background(), k, run)
		}(i)
	}
	// Wait until all followers are parked on the flight.
	for {
		if s := e.Snapshot(); s.Coalesced == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(finish)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("runner invoked %d times for %d identical concurrent queries, want 1", got, n)
	}
	coalesced := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i].Data != "shared" {
			t.Errorf("query %d got %v", i, results[i].Data)
		}
		if infos[i].Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d queries coalesced, want %d", coalesced, n-1)
	}
}

func TestExecuteDistinctKeysDoNotCoalesce(t *testing.T) {
	e := New(nil, NewGovernor(8, 8))
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := testKey("g", 1, fmt.Sprintf("source=%d", i))
			_, _, _ = e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
				runs.Add(1)
				return Value{}, nil
			})
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 4 {
		t.Errorf("runner invoked %d times for 4 distinct keys, want 4", got)
	}
}

func TestExecuteFollowerDetachesOnOwnCancel(t *testing.T) {
	e := New(nil, NewGovernor(4, 2))
	k := testKey("g", 1, "source=0")
	entered := make(chan struct{})
	finish := make(chan struct{})
	defer close(finish)
	go e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
		close(entered)
		<-finish
		return Value{}, nil
	})
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := e.Execute(ctx, k, func(ctx context.Context, procs int) (Value, error) {
			t.Error("follower ran the runner")
			return Value{}, nil
		})
		done <- err
	}()
	for e.Snapshot().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not detach from the flight")
	}
}

// TestFollowerSurvivesLeaderCancel: a leader whose own ctx ends hands its
// followers a context error they did not cause; a follower whose ctx is
// still live must run the query itself (or join the next flight) instead
// of returning it — including when the cause sits inside a wrapping error,
// as algo.RoundError does. Ordinary errors are still shared.
func TestFollowerSurvivesLeaderCancel(t *testing.T) {
	e := New(nil, NewGovernor(4, 2))
	k := testKey("g", 1, "source=0")
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		lctx, lcancel := context.WithCancel(context.Background())
		entered := make(chan struct{})
		leaderDone := make(chan error, 1)
		go func() {
			_, _, err := e.Execute(lctx, k, func(ctx context.Context, procs int) (Value, error) {
				close(entered)
				<-ctx.Done()
				return Value{Data: "partial"}, fmt.Errorf("interrupted after round 3: %w", cause)
			})
			leaderDone <- err
		}()
		<-entered

		const followers = 4
		before := e.Snapshot().Coalesced
		var wg sync.WaitGroup
		vals := make([]Value, followers)
		errs := make([]error, followers)
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				vals[i], _, errs[i] = e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
					return Value{Data: "full"}, nil
				})
			}(i)
		}
		for e.Snapshot().Coalesced < before+followers {
			time.Sleep(time.Millisecond)
		}
		lcancel()
		wg.Wait()
		if err := <-leaderDone; !errors.Is(err, cause) {
			t.Fatalf("leader err = %v, want %v", err, cause)
		}
		for i := 0; i < followers; i++ {
			if errs[i] != nil || vals[i].Data != "full" {
				t.Errorf("%v: follower %d got (%v, %v), want its own full result", cause, i, vals[i].Data, errs[i])
			}
		}
	}

	// An ordinary leader error is still every follower's answer.
	boom := errors.New("bad input")
	entered, finish := make(chan struct{}), make(chan struct{})
	go e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
		close(entered)
		<-finish
		return Value{}, boom
	})
	<-entered
	before := e.Snapshot().Coalesced
	done := make(chan error, 1)
	go func() {
		_, _, err := e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
			t.Error("follower of a failed leader ran the runner")
			return Value{}, nil
		})
		done <- err
	}()
	for e.Snapshot().Coalesced == before {
		time.Sleep(time.Millisecond)
	}
	close(finish)
	if err := <-done; !errors.Is(err, boom) {
		t.Errorf("follower err = %v, want the leader's %v", err, boom)
	}
}

// TestExecutePlumbsGovernorCapThroughParallel verifies the end-to-end
// proc plumbing: the runner's ctx carries the lease as a
// parallel.WithProcs cap, so every ctx-aware loop under it is bounded.
func TestExecutePlumbsGovernorCapThroughParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	e := New(nil, NewGovernor(8, 2))
	k := testKey("g", 1, "source=0")
	_, info, err := e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
		if procs != 2 {
			t.Errorf("lease = %d procs, want 2", procs)
		}
		if got := parallel.CtxProcs(ctx); got != 2 {
			t.Errorf("parallel.CtxProcs(ctx) = %d, want 2", got)
		}
		var cur, peak atomic.Int64
		perr := parallel.ForWorkerChunks(ctx, 64, 1, func(_, _, lo, hi int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			cur.Add(-1)
		})
		if perr != nil {
			return Value{}, perr
		}
		if p := peak.Load(); p > 2 {
			t.Errorf("observed %d concurrent workers under a 2-slot lease", p)
		}
		return Value{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Procs != 2 {
		t.Errorf("Info.Procs = %d, want 2", info.Procs)
	}
}

// TestLightQueriesNotStarvedByHeavyLoad is the governor's latency
// acceptance test: with heavy queries holding most of the pool, light
// queries still get a minimum-one-slot lease immediately (Acquire never
// blocks), so their p50 stays far below the heavy runtime.
func TestLightQueriesNotStarvedByHeavyLoad(t *testing.T) {
	e := New(nil, NewGovernor(4, 4))

	heavyDur := 400 * time.Millisecond
	heavyStarted := make(chan struct{})
	heavyDone := make(chan struct{})
	go func() {
		defer close(heavyDone)
		k := testKey("g", 1, "heavy")
		e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
			close(heavyStarted)
			time.Sleep(heavyDur) // occupies the full pool
			return Value{}, nil
		})
	}()
	<-heavyStarted

	const lights = 9
	lat := make([]time.Duration, lights)
	var wg sync.WaitGroup
	for i := 0; i < lights; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := testKey("g", 1, fmt.Sprintf("light=%d", i))
			start := time.Now()
			_, info, err := e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
				if procs < 1 {
					t.Errorf("light query granted %d procs", procs)
				}
				time.Sleep(time.Millisecond)
				return Value{}, nil
			})
			if err != nil {
				t.Errorf("light query %d: %v", i, err)
			}
			if info.Procs < 1 {
				t.Errorf("light query %d ran with %d procs", i, info.Procs)
			}
			lat[i] = time.Since(start)
		}(i)
	}
	wg.Wait()

	select {
	case <-heavyDone:
		t.Fatal("heavy query finished before light queries; the test measured nothing")
	default:
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p50 := lat[lights/2]; p50 >= heavyDur/2 {
		t.Errorf("light-query p50 = %v with heavy query running (%v); governor is starving light queries", p50, heavyDur)
	}
	<-heavyDone
}

func TestInvalidateGraphDropsOnlyThatGraph(t *testing.T) {
	e := New(NewCache(1<<20), NewGovernor(2, 2))
	put := func(graph, params string) {
		k := testKey(graph, 1, params)
		e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
			return Value{Data: graph + "/" + params, Bytes: 32}, nil
		})
	}
	put("a", "p1")
	put("a", "p2")
	put("b", "p1")

	if n := e.InvalidateGraph("a"); n != 2 {
		t.Errorf("InvalidateGraph(a) dropped %d entries, want 2", n)
	}
	if _, info, _ := e.Execute(context.Background(), testKey("b", 1, "p1"), func(ctx context.Context, procs int) (Value, error) {
		t.Error("graph b's entry was dropped")
		return Value{}, nil
	}); !info.Cached {
		t.Error("graph b should still be cached")
	}
	var reran atomic.Bool
	e.Execute(context.Background(), testKey("a", 1, "p1"), func(ctx context.Context, procs int) (Value, error) {
		reran.Store(true)
		return Value{}, nil
	})
	if !reran.Load() {
		t.Error("graph a still served from cache after invalidation")
	}
}

// TestExecuteContainsPanic: a run that panics inside Execute reaches its
// leader and every coalesced follower as a *parallel.PanicError; the
// governor lease comes back, the flight is retired, and the next Execute
// on the key runs fresh.
func TestExecuteContainsPanic(t *testing.T) {
	e := New(NewCache(1<<20), NewGovernor(4, 2))
	k := testKey("g", 1, "source=0")
	entered, finish := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 3)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				errs <- fmt.Errorf("panic escaped Execute: %v", r)
			}
		}()
		_, _, err := e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
			close(entered)
			<-finish
			panic("run exploded")
		})
		errs <- err
	}()
	<-entered
	const followers = 2
	for i := 0; i < followers; i++ {
		go func() {
			_, _, err := e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
				t.Error("follower of a panicking leader ran the runner")
				return Value{}, nil
			})
			errs <- err
		}()
	}
	for e.Snapshot().Coalesced < followers {
		time.Sleep(time.Millisecond)
	}
	close(finish)
	for i := 0; i < 1+followers; i++ {
		select {
		case err := <-errs:
			var pe *parallel.PanicError
			if !errors.As(err, &pe) {
				t.Errorf("caller err = %v, want *parallel.PanicError", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller never returned from the panicking flight")
		}
	}
	if n := e.Governor().Stats().InUse; n != 0 {
		t.Errorf("governor InUse = %d after the panic, want 0", n)
	}
	v, info, err := e.Execute(context.Background(), k, func(ctx context.Context, procs int) (Value, error) {
		return Value{Data: "fresh"}, nil
	})
	if err != nil || v.Data != "fresh" || info.Cached || info.Coalesced {
		t.Errorf("Execute after the panic: (%v, %+v, %v), want a fresh run", v.Data, info, err)
	}
}
