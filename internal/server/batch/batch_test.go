package batch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ligra/internal/algo"
	"ligra/internal/gen"
	"ligra/internal/parallel"
	"ligra/internal/server/engine"
)

func key(i int) engine.Key {
	return engine.Key{Graph: "g", Generation: 1, Algo: "bfs", Params: fmt.Sprintf("source=%d", i)}
}

func req(i int) Request {
	return Request{Key: key(i), Algo: "bfs", Params: algo.Params{Source: uint32(i)}}
}

// echoRun answers each slot with its own key's params string.
func echoRun(runs *atomic.Int64) RunFunc {
	return func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		runs.Add(1)
		vals := make([]engine.Value, len(slots))
		for i, s := range slots {
			vals[i] = engine.Value{Data: s.Key.Params, Bytes: int64(len(s.Key.Params))}
		}
		return vals, nil
	}
}

// echoPlain is the plain runner for r: its own key's params string.
func echoPlain(r Request, runs *atomic.Int64) engine.RunFunc {
	return func(ctx context.Context, procs int) (engine.Value, error) {
		runs.Add(1)
		return engine.Value{Data: r.Key.Params, Bytes: int64(len(r.Key.Params))}, nil
	}
}

// noSweep fails the test if the collector sweeps.
func noSweep(t *testing.T) RunFunc {
	return func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		t.Errorf("sweep ran with %d slots", len(slots))
		return nil, errors.New("unexpected sweep")
	}
}

func newCollector(cacheBytes int64, cfg Config) *Collector {
	return New(context.Background(), engine.New(engine.NewCache(cacheBytes), engine.NewGovernor(4, 0)), cfg)
}

func (c *Collector) inflightOf(sh shape) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight[sh]
}

// loadLane parks SweepCrossover-1 plain queries of req's shape inside the
// collector — the measured load at which the next arrival is queued rather
// than run — and returns their release (also run at cleanup).
func loadLane(t *testing.T, c *Collector) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < SweepCrossover-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Execute(context.Background(), req(1000+i), func(context.Context, int) (engine.Value, error) {
				<-gate
				return engine.Value{}, errors.New("ballast")
			}, noSweep(t))
		}(i)
	}
	for c.inflightOf(req(0).shape()) < SweepCrossover-1 {
		time.Sleep(time.Millisecond)
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			wg.Wait()
		})
	}
	t.Cleanup(release)
	return release
}

// gather runs Execute for reqs concurrently and returns the outcomes.
func gather(c *Collector, ctx context.Context, reqs []Request, plainRuns *atomic.Int64, sweep RunFunc) ([]engine.Value, []Info, []error) {
	vals := make([]engine.Value, len(reqs))
	infos := make([]Info, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			vals[i], infos[i], errs[i] = c.Execute(ctx, r, echoPlain(r, plainRuns), sweep)
		}(i, r)
	}
	wg.Wait()
	return vals, infos, errs
}

func distinct(from, n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = req(from + i)
	}
	return reqs
}

// TestBelowCrossoverRunsPlain: fewer concurrent queries than the
// crossover each run the plain runner on arrival — N executions, no
// window, no sweep, no Batched reply.
func TestBelowCrossoverRunsPlain(t *testing.T) {
	c := newCollector(0, Config{Window: time.Hour}) // a window wait would hang the test
	const N = SweepCrossover - 1
	var entered atomic.Int64
	gate := make(chan struct{})
	infos := make([]Info, N)
	vals := make([]engine.Value, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			vals[i], infos[i], err = c.Execute(context.Background(), req(i), func(context.Context, int) (engine.Value, error) {
				entered.Add(1)
				<-gate // hold all N in flight at once
				return engine.Value{Data: key(i).Params}, nil
			}, noSweep(t))
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	for entered.Load() < N {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < N; i++ {
		if vals[i].Data != key(i).Params || infos[i].Batched || infos[i].BatchSize != 0 || infos[i].Procs == 0 {
			t.Fatalf("caller %d: val %v info %+v", i, vals[i].Data, infos[i])
		}
	}
	if s := c.Stats(); s.PlainRuns != N || s.BatchesRun != 0 || s.ShortWindows != 0 || s.WindowWaits != 0 {
		t.Fatalf("stats %+v", s)
	}
	if n := c.inflightOf(req(0).shape()); n != 0 {
		t.Fatalf("inflight gauge leaked: %d", n)
	}
}

// TestBatchGathersWindow: at the crossover, K concurrent distinct queries
// within one window run as ONE sweep and every caller gets its own slot's
// value.
func TestBatchGathersWindow(t *testing.T) {
	var sweeps, plains atomic.Int64
	c := newCollector(1<<20, Config{Window: 100 * time.Millisecond})
	loadLane(t, c)
	const K = 16
	vals, infos, errs := gather(c, context.Background(), distinct(0, K), &plains, echoRun(&sweeps))
	if sweeps.Load() != 1 || plains.Load() != 0 {
		t.Fatalf("sweeps = %d plains = %d, want 1/0", sweeps.Load(), plains.Load())
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i].Data != key(i).Params {
			t.Fatalf("caller %d got %v", i, vals[i].Data)
		}
		if !infos[i].Batched || infos[i].BatchSize != K || infos[i].Cached {
			t.Fatalf("caller %d info %+v", i, infos[i])
		}
	}
	s := c.Stats()
	if s.BatchesRun != 1 || s.QueriesBatched != K || s.MeanBatchSize != K || s.WindowWaits != 1 || s.PlainRuns != SweepCrossover-1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestShortWindowReleasesToPlain: a window that closes below the
// crossover sweeps nothing; each waiter runs plain and gets its own
// answer.
func TestShortWindowReleasesToPlain(t *testing.T) {
	var plains atomic.Int64
	c := newCollector(0, Config{Window: 20 * time.Millisecond})
	loadLane(t, c)
	const K = 3
	vals, infos, errs := gather(c, context.Background(), distinct(0, K), &plains, noSweep(t))
	for i := 0; i < K; i++ {
		if errs[i] != nil || vals[i].Data != key(i).Params || infos[i].Batched || infos[i].BatchSize != 0 {
			t.Fatalf("caller %d: val %v info %+v err %v", i, vals[i].Data, infos[i], errs[i])
		}
	}
	if plains.Load() != K {
		t.Fatalf("plain runs = %d, want %d", plains.Load(), K)
	}
	// Released waiters are not arrivals: plain_runs counts only the ballast.
	if s := c.Stats(); s.ShortWindows < 1 || s.BatchesRun != 0 || s.PlainRuns != SweepCrossover-1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestReleasedWaiterKeepsPartialResult: a waiter released to plain whose
// run is then interrupted returns what every other algorithm returns —
// the partial value alongside the *algo.RoundError — not a bare ctx error.
func TestReleasedWaiterKeepsPartialResult(t *testing.T) {
	c := newCollector(1<<20, Config{Window: 5 * time.Millisecond})
	loadLane(t, c)
	interrupted := &algo.RoundError{Algo: "bfs", Round: 3, Err: context.DeadlineExceeded}
	v, info, err := c.Execute(context.Background(), req(0), func(context.Context, int) (engine.Value, error) {
		return engine.Value{Data: "partial"}, interrupted
	}, noSweep(t))
	var re *algo.RoundError
	if !errors.As(err, &re) || re.Round != 3 || v.Data != "partial" || info.Batched {
		t.Fatalf("val %v info %+v err %v", v.Data, info, err)
	}
}

// TestSlotCoalescing: identical keys in one window share a slot; all get
// the value, the later ones marked Coalesced; the sweep sees one slot for
// them.
func TestSlotCoalescing(t *testing.T) {
	var sweeps, plains, slotCount atomic.Int64
	run := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		sweeps.Add(1)
		slotCount.Store(int64(len(slots)))
		return make([]engine.Value, len(slots)), nil
	}
	c := newCollector(0, Config{Window: 100 * time.Millisecond}) // cache off: coalescing must not depend on it
	loadLane(t, c)
	const K = 8
	reqs := distinct(100, SweepCrossover-1) // fillers: with the shared slot, exactly the crossover
	for i := 0; i < K; i++ {
		reqs = append(reqs, req(7))
	}
	_, infos, errs := gather(c, context.Background(), reqs, &plains, run)
	if sweeps.Load() != 1 || slotCount.Load() != SweepCrossover || plains.Load() != 0 {
		t.Fatalf("sweeps=%d slots=%d plains=%d, want 1/%d/0", sweeps.Load(), slotCount.Load(), plains.Load(), SweepCrossover)
	}
	coalesced := 0
	for i := range infos {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if infos[i].Coalesced {
			coalesced++
		}
	}
	if coalesced != K-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, K-1)
	}
	if s := c.Stats(); s.QueriesBatched != int64(len(reqs)) || s.MeanBatchSize != SweepCrossover {
		t.Fatalf("stats %+v", s)
	}
}

// TestFullBatchFiresEarly: a batch that reaches MaxBatch fires without
// waiting out the window, and MaxBatch is never below the crossover.
func TestFullBatchFiresEarly(t *testing.T) {
	var sweeps, plains atomic.Int64
	c := newCollector(1<<20, Config{Window: time.Hour, MaxBatch: 4})
	if c.max != SweepCrossover {
		t.Fatalf("MaxBatch 4 gives max %d, want it raised to the crossover %d", c.max, SweepCrossover)
	}
	loadLane(t, c)
	_, infos, errs := gather(c, context.Background(), distinct(0, SweepCrossover), &plains, echoRun(&sweeps))
	for i, err := range errs {
		if err != nil || infos[i].BatchSize != SweepCrossover {
			t.Fatalf("caller %d: info %+v err %v", i, infos[i], err)
		}
	}
	if sweeps.Load() != 1 || plains.Load() != 0 {
		t.Fatalf("sweeps = %d plains = %d", sweeps.Load(), plains.Load())
	}
	if s := c.Stats(); s.WindowWaits != 0 {
		t.Fatalf("full batch counted as window wait: %+v", s)
	}
}

// TestCallerCancelMidBatch: one caller cancels while the sweep runs; it
// gets its ctx error immediately, the others still get their results, and
// the sweep is NOT cancelled.
func TestCallerCancelMidBatch(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	sawCancel := make(chan bool, 1)
	run := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		close(started)
		<-release
		sawCancel <- ctx.Err() != nil
		vals := make([]engine.Value, len(slots))
		for i, s := range slots {
			vals[i] = engine.Value{Data: s.Key.Params}
		}
		return vals, nil
	}
	c := newCollector(1<<20, Config{Window: time.Hour, MaxBatch: SweepCrossover})
	loadLane(t, c)
	var plains atomic.Int64
	cctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		r := req(0)
		_, _, err := c.Execute(cctx, r, echoPlain(r, &plains), run)
		cancelled <- err
	}()
	type out struct {
		vals []engine.Value
		errs []error
	}
	siblings := make(chan out, 1)
	go func() {
		vals, _, errs := gather(c, context.Background(), distinct(1, SweepCrossover-1), &plains, run)
		siblings <- out{vals, errs}
	}()
	<-started // the batch filled and the sweep is blocked on release
	cancel()
	// The cancelled caller must return promptly even though the sweep is
	// still blocked on release.
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller did not return")
	}
	close(release)
	sib := <-siblings
	if <-sawCancel {
		t.Fatal("sweep was cancelled although waiters remained")
	}
	for i := range sib.vals {
		if sib.errs[i] != nil || sib.vals[i].Data != key(i+1).Params {
			t.Fatalf("sibling %d: val=%v err=%v", i, sib.vals[i].Data, sib.errs[i])
		}
	}
}

// TestAllCallersCancelStopsSweep: when every waiter detaches, the batch
// context is cancelled so the sweep can stop early.
func TestAllCallersCancelStopsSweep(t *testing.T) {
	started := make(chan struct{})
	stopped := make(chan error, 1)
	run := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		close(started)
		select {
		case <-ctx.Done():
			stopped <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			stopped <- nil
			return nil, errors.New("never cancelled")
		}
	}
	c := newCollector(1<<20, Config{Window: time.Hour, MaxBatch: SweepCrossover})
	loadLane(t, c)
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan []error, 1)
	go func() {
		var plains atomic.Int64
		_, _, errs := gather(c, cctx, distinct(0, SweepCrossover), &plains, run)
		done <- errs
	}()
	<-started
	cancel()
	for i, err := range <-done {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("caller %d err = %v", i, err)
		}
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep saw %v, want cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never observed cancellation")
	}
}

// TestDetachBeforeFireDropsBatch: a caller that cancels while the batch
// is still forming (long window) retires the batch without running it.
func TestDetachBeforeFireDropsBatch(t *testing.T) {
	var plains atomic.Int64
	c := newCollector(1<<20, Config{Window: time.Hour})
	loadLane(t, c)
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		r := req(0)
		_, _, err := c.Execute(cctx, r, echoPlain(r, &plains), noSweep(t))
		done <- err
	}()
	pending := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending)
	}
	for pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if plains.Load() != 0 {
		t.Fatal("abandoned query still ran")
	}
	if pending() != 0 {
		t.Fatal("abandoned batch left in pending")
	}
	if s := c.Stats(); s.BatchesRun != 0 || s.ShortWindows != 0 {
		t.Fatalf("abandoned batch counted: %+v", s)
	}
}

// TestPanicFanout: a panic inside the sweep becomes a *parallel.PanicError
// for EVERY waiter, counts fanout errors, and leaves the collector usable.
func TestPanicFanout(t *testing.T) {
	boom := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		panic("sweep exploded")
	}
	c := newCollector(1<<20, Config{Window: 100 * time.Millisecond})
	release := loadLane(t, c)
	var plains atomic.Int64
	const K = SweepCrossover + 2
	_, _, errs := gather(c, context.Background(), distinct(0, K), &plains, boom)
	for i := 0; i < K; i++ {
		var pe *parallel.PanicError
		if !errors.As(errs[i], &pe) {
			t.Fatalf("caller %d err = %v, want *parallel.PanicError", i, errs[i])
		}
	}
	if s := c.Stats(); s.FanoutErrors != K {
		t.Fatalf("fanout_errors = %d, want %d", s.FanoutErrors, K)
	}
	// Collector still works after the panic.
	release()
	r := req(99)
	if v, _, err := c.Execute(context.Background(), r, echoPlain(r, &plains), boom); err != nil || v.Data != r.Key.Params {
		t.Fatalf("post-panic execute: %v %v", v.Data, err)
	}
}

// TestCacheInteraction: a hit skips the window on both sides of the
// crossover; plain runs and successful sweeps fill the one cache.
func TestCacheInteraction(t *testing.T) {
	var sweeps, plains atomic.Int64
	c := newCollector(1<<20, Config{Window: 100 * time.Millisecond})
	r := req(1)
	v, info, err := c.Execute(context.Background(), r, echoPlain(r, &plains), noSweep(t))
	if err != nil || info.Cached {
		t.Fatalf("first: %+v %v", info, err)
	}
	v2, info2, err := c.Execute(context.Background(), r, echoPlain(r, &plains), noSweep(t))
	if err != nil || !info2.Cached || info2.Batched || v2.Data != v.Data {
		t.Fatalf("second: %v %+v %v", v2.Data, info2, err)
	}
	if plains.Load() != 1 {
		t.Fatalf("plain runs = %d, want 1 (second served from cache)", plains.Load())
	}

	// At the crossover: a cached key is answered without being seated, a
	// sweep fills the cache per slot.
	loadLane(t, c)
	c.eng.Cache().Put(key(42), engine.Value{Data: "seeded", Bytes: 6})
	v3, info3, err := c.Execute(context.Background(), req(42), echoPlain(req(42), &plains), noSweep(t))
	if err != nil || !info3.Cached || v3.Data != "seeded" {
		t.Fatalf("seeded: %v %+v %v", v3.Data, info3, err)
	}
	if _, _, errs := gather(c, context.Background(), distinct(200, SweepCrossover), &plains, echoRun(&sweeps)); errs[0] != nil || sweeps.Load() != 1 {
		t.Fatalf("sweep: %v, sweeps = %d", errs[0], sweeps.Load())
	}
	v4, info4, err := c.Execute(context.Background(), req(200), echoPlain(req(200), &plains), noSweep(t))
	if err != nil || !info4.Cached || v4.Data != key(200).Params {
		t.Fatalf("swept slot not cached: %v %+v %v", v4.Data, info4, err)
	}
}

// TestShapeIsolation: different shapes never share a batch, and one
// shape's load never queues another's queries.
func TestShapeIsolation(t *testing.T) {
	var sweeps, plains atomic.Int64
	c := newCollector(1<<20, Config{Window: 100 * time.Millisecond})
	loadLane(t, c)
	reqs := distinct(0, SweepCrossover)
	for i := 0; i < 4; i++ {
		r := req(500 + i)
		r.Key.Graph = "other" // an idle lane: below the crossover, plain
		reqs = append(reqs, r)
	}
	_, infos, errs := gather(c, context.Background(), reqs, &plains, echoRun(&sweeps))
	for i := range reqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want := i < SweepCrossover; infos[i].Batched != want {
			t.Fatalf("query %d (graph %s): batched = %v", i, reqs[i].Key.Graph, infos[i].Batched)
		}
	}
	if sweeps.Load() != 1 || plains.Load() != 4 {
		t.Fatalf("sweeps = %d plains = %d, want 1/4", sweeps.Load(), plains.Load())
	}
}

// TestBadFanoutIsError: a RunFunc returning misaligned values is an error
// for every caller, not a silent wrong answer.
func TestBadFanoutIsError(t *testing.T) {
	bad := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		return make([]engine.Value, len(slots)+1), nil
	}
	c := newCollector(1<<20, Config{Window: time.Hour, MaxBatch: SweepCrossover})
	loadLane(t, c)
	var plains atomic.Int64
	_, _, errs := gather(c, context.Background(), distinct(0, SweepCrossover), &plains, bad)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: misaligned fanout accepted", i)
		}
	}
}

// TestBatchingOff: a negative window sends every query, batchable or not,
// at any load, to the plain runner, and counts nothing.
func TestBatchingOff(t *testing.T) {
	var plains atomic.Int64
	c := newCollector(0, Config{Window: -1})
	_, infos, errs := gather(c, context.Background(), distinct(0, 2*SweepCrossover), &plains, noSweep(t))
	for i := range infos {
		if errs[i] != nil || infos[i].Batched {
			t.Fatalf("caller %d: info %+v err %v", i, infos[i], errs[i])
		}
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats %+v, want zero", s)
	}
}

// TestClusterRunEndToEnd: the standard sweep through the collector
// answers mixed bfs/reach/landmarks queries identically to the plain
// runners.
func TestClusterRunEndToEnd(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(g.NumVertices())
	c := newCollector(0, Config{Window: 100 * time.Millisecond}) // cache off: every query must traverse
	loadLane(t, c)
	var reqs []Request
	for i := uint32(0); i < SweepCrossover+2; i++ {
		name, p := "bfs", algo.Params{Source: i * 37 % n}
		switch i % 3 {
		case 1:
			name, p.Target = "reach", (n/2+i)%n
		case 2:
			name, p.Landmarks = "landmarks", []uint32{0, (n/3 + i) % n, n - 2, 0}
		}
		reqs = append(reqs, Request{
			Key:    engine.Key{Graph: "g", Generation: 1, Algo: name, Params: p.Canonical()},
			Algo:   name,
			Params: p,
		})
	}
	sweep := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		return ClusterRun(ctx, g, procs, slots)
	}
	var plains atomic.Int64
	got, infos, errs := gather(c, context.Background(), reqs, &plains, sweep)
	for i, r := range reqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		runner, _ := algo.FindRunner(r.Algo)
		want, err := runner.Run(context.Background(), g, r.Params)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Data, want) {
			t.Fatalf("query %d (%s) diverges:\n got %+v\nwant %+v", i, r.Algo, got[i].Data, want)
		}
		if !infos[i].Batched || infos[i].BatchSize != len(reqs) {
			t.Fatalf("query %d info %+v", i, infos[i])
		}
	}
}
