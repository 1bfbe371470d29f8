// Package batch decides how a batchable query (bfs, reach, landmarks —
// any whose runner row Sweeps) executes. Below the measured crossover it is
// the plain runner through engine.Execute, exactly like every other
// algorithm; at or above it, up to 64 queries against the same (graph,
// generation, traversal shape) each contribute one source bit to a shared
// ClusterBFS sweep and are answered from one pass over the edge set. The
// collector holds the engine: plain runs use its cache, single-flight and
// governor unchanged, sweeps look up and fill the same cache per slot and
// take one governor lease, and identical keys seated in one window share
// a slot.
package batch

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ligra/internal/algo"
	"ligra/internal/server/engine"
)

// SweepCrossover is the number of concurrent same-shape queries from
// which one sweep is cheaper than that many plain runs. `ligra-bench
// -experiment batch` (BENCH_baseline.json: rMat scale 16, 2 procs)
// brackets it between batch/k8-{unbatched,batched} — 11.4 vs 13.8 ms,
// eight plain BFS still beat the sweep (0.83x) — and
// batch/k12-{unbatched,batched} — 21.0 vs 11.3 ms, the sweep wins 1.85x;
// plain runs cost ~1.7 ms per source, the sweep ~12 ms nearly flat in K
// (k2 0.49x, k4 0.50x, k32 3.8x, k64 6.4x). Below it a sweep is never
// run: not on arrival, and not when a window closes short.
const SweepCrossover = 10

// Config parameterizes a Collector.
type Config struct {
	// Window bounds how long a queued query waits for its batch to reach
	// the crossover; 0 selects 2ms, negative turns batching off (every
	// query runs plain).
	Window time.Duration
	// MaxBatch caps the sources per sweep; 0 selects 64, values beyond
	// 64 are clamped (the visit word has 64 bits) and values below
	// SweepCrossover raised to it. A full batch fires immediately
	// without waiting out the window.
	MaxBatch int
}

func (c Config) window() time.Duration {
	if c.Window == 0 {
		return 2 * time.Millisecond
	}
	return c.Window
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 || c.MaxBatch > 64 {
		return 64
	}
	return max(c.MaxBatch, SweepCrossover)
}

// Request is one query as the collector sees it.
type Request struct {
	// Key is the query's cache identity (graph, generation, algo,
	// canonical params); identical Keys in one window coalesce to a
	// single slot.
	Key engine.Key
	// Runner and Params identify what to extract for this slot from the
	// shared sweep (see ClusterRun).
	Runner algo.Runner
	Params algo.Params
}

// shape groups queries that may share a sweep: same graph, generation,
// and edgeMap strategy. The algorithm name is NOT part of the shape — a
// bfs, a reach, and a landmarks query can ride the same traversal.
type shape struct {
	graph      string
	generation uint64
	mode       string
	threshold  int64
}

func (r Request) shape() shape {
	return shape{r.Key.Graph, r.Key.Generation, r.Params.Mode, r.Params.Threshold}
}

// RunFunc executes one gathered batch: slots are the coalesced requests
// (one source each), ctx carries the sweep's proc lease, and the returned
// values must align index-wise with slots.
type RunFunc func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error)

// Info reports how a request was satisfied: engine.Info (for a swept
// query, Coalesced means it shared a slot with an identical query and
// Procs is the sweep's lease) plus the batch dimension.
type Info struct {
	engine.Info
	// Batched: answered by a shared sweep. BatchSize is that sweep's
	// slot count.
	Batched   bool
	BatchSize int
}

// Collector routes batchable queries to the plain runner or a shared sweep.
type Collector struct {
	base   context.Context
	eng    *engine.Engine
	window time.Duration // <= 0: batching off
	max    int

	mu sync.Mutex
	// inflight counts, per shape, the batchable queries inside Execute —
	// the measured load the plain-or-sweep decision reads.
	inflight map[shape]int
	pending  map[shape]*batch // the batch forming for a shape, if any

	stats Stats // MeanBatchSize is derived from slots on read
	slots int64 // slots swept, over all sweeps
}

// New builds a Collector over eng. base is the server's lifetime context
// (its cancellation aborts in-flight sweeps).
func New(base context.Context, eng *engine.Engine, cfg Config) *Collector {
	if base == nil {
		base = context.Background()
	}
	return &Collector{
		base:     base,
		eng:      eng,
		window:   cfg.window(),
		max:      cfg.maxBatch(),
		inflight: make(map[shape]int),
		pending:  make(map[shape]*batch),
	}
}

// batch is one forming or running sweep.
type batch struct {
	shape shape
	run   RunFunc
	timer *time.Timer
	slots []Request
	byKey map[engine.Key]int
	fired bool
	// waiters counts callers still wanting an answer; the last one to
	// detach cancels the sweep (or drops the batch if it never fired).
	waiters int
	cancel  context.CancelFunc

	done chan struct{} // closed when short, or vals/err/procs, are published
	// short: the window closed below the crossover and no sweep ran; each
	// waiter runs plain.
	short bool
	vals  []engine.Value
	err   error
	procs int
}

// Execute satisfies one query. plain is the closure engine.Execute would
// be handed for any algorithm; sweep answers a gathered batch. While
// fewer than SweepCrossover queries of req's shape are in flight and no
// batch is forming for it, the query runs plain at once — no window, no
// 64-lane sweep. Otherwise it is seated (unless cached), and answered by
// the sweep once the batch fills or, if the window closes with at least
// SweepCrossover slots, by the timer; a window that closes short releases
// its waiters to plain runs. A seated caller's ctx only governs its own
// wait: a canceled caller abandons its slot and the sweep keeps serving
// the others.
func (c *Collector) Execute(ctx context.Context, req Request, plain engine.RunFunc, sweep RunFunc) (engine.Value, Info, error) {
	if c.window <= 0 || !req.Runner.Sweeps() {
		return c.runPlain(ctx, req, plain)
	}
	sh := req.shape()
	c.mu.Lock()
	c.inflight[sh]++
	queue := c.pending[sh] != nil || c.inflight[sh] >= SweepCrossover
	if !queue {
		c.stats.PlainRuns++
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.inflight[sh]--; c.inflight[sh] == 0 {
			delete(c.inflight, sh)
		}
		c.mu.Unlock()
	}()
	if !queue {
		return c.runPlain(ctx, req, plain)
	}
	if v, ok := c.eng.Cache().Get(req.Key); ok {
		return v, Info{Info: engine.Info{Cached: true}}, nil
	}

	c.mu.Lock()
	b := c.pending[sh]
	if b == nil {
		b = &batch{shape: sh, run: sweep, byKey: map[engine.Key]int{}, done: make(chan struct{})}
		c.pending[sh] = b
		b.timer = time.AfterFunc(c.window, func() { c.fire(b, true) })
	}
	idx, coalesced := b.byKey[req.Key]
	if !coalesced {
		idx = len(b.slots)
		b.slots = append(b.slots, req)
		b.byKey[req.Key] = idx
	}
	b.waiters++
	full := len(b.slots) >= c.max
	c.mu.Unlock()
	if full {
		c.fire(b, false)
	}

	select {
	case <-b.done:
		if b.short {
			return c.runPlain(ctx, req, plain)
		}
		info := Info{Info: engine.Info{Coalesced: coalesced, Procs: b.procs}, Batched: true, BatchSize: len(b.slots)}
		if b.err != nil {
			return engine.Value{}, info, b.err
		}
		return b.vals[idx], info, nil
	case <-ctx.Done():
		c.detach(b)
		return engine.Value{}, Info{Info: engine.Info{Coalesced: coalesced}}, ctx.Err()
	}
}

// runPlain is the path every non-batchable algorithm takes: cache,
// single-flight, governor lease and run, all inside engine.Execute.
func (c *Collector) runPlain(ctx context.Context, req Request, plain engine.RunFunc) (engine.Value, Info, error) {
	v, how, err := c.eng.Execute(ctx, req.Key, plain)
	return v, Info{Info: how}, err
}

// fire transitions a batch out of forming: to a running sweep, to
// released-short when the window (byTimer) closed below the crossover, or
// to retired when every waiter already left. Idempotent, and a no-op for
// a caller whose reason no longer holds: the timer, a fill, the last
// detach and a late joiner can race.
func (c *Collector) fire(b *batch, byTimer bool) {
	c.mu.Lock()
	if b.fired || !byTimer && b.waiters > 0 && len(b.slots) < c.max {
		c.mu.Unlock()
		return
	}
	b.fired = true
	delete(c.pending, b.shape)
	b.timer.Stop()
	if b.waiters == 0 || byTimer && len(b.slots) < SweepCrossover {
		if b.waiters == 0 {
			b.err = context.Canceled // nobody left to hear an answer
		} else {
			b.short = true
			c.stats.ShortWindows++
		}
		c.mu.Unlock()
		close(b.done)
		return
	}
	slots := b.slots
	var bctx context.Context
	bctx, b.cancel = context.WithCancel(c.base)
	c.stats.BatchesRun++
	c.stats.QueriesBatched += int64(b.waiters)
	c.slots += int64(len(slots))
	if byTimer {
		c.stats.WindowWaits++
	}
	c.mu.Unlock()

	// The sweep runs on its own goroutine so a caller whose batch fired
	// by filling up can still time out or detach while it runs.
	go c.runBatch(b, bctx, slots)
}

// runBatch executes the sweep through engine.Run (one governor lease,
// panic containment), fills the cache per slot, and publishes the outcome.
func (c *Collector) runBatch(b *batch, bctx context.Context, slots []Request) {
	var vals []engine.Value
	procs, err := c.eng.Run(bctx, func(ctx context.Context, procs int) (err error) {
		vals, err = b.run(ctx, procs, slots)
		return err
	})
	if err == nil && len(vals) != len(slots) {
		err = fmt.Errorf("batch: run returned %d values for %d slots", len(vals), len(slots))
	}
	if err == nil {
		for i, req := range slots {
			c.eng.Cache().Put(req.Key, vals[i])
		}
	} else {
		c.mu.Lock()
		c.stats.FanoutErrors += int64(len(slots))
		c.mu.Unlock()
	}

	b.vals, b.err, b.procs = vals, err, procs
	close(b.done)
	b.cancel()
}

// detach abandons one caller's seat. The batch (and its other waiters) is
// unaffected unless this was the last waiter: then a running sweep is
// cancelled, and a still-forming batch is retired before it ever fires.
func (c *Collector) detach(b *batch) {
	c.mu.Lock()
	b.waiters--
	last, cancel := b.waiters == 0, b.cancel
	c.mu.Unlock()
	switch {
	case !last:
	case cancel != nil:
		cancel()
	default:
		c.fire(b, false)
	}
}

// Stats is a point-in-time snapshot of the collector's counters, in the
// JSON shape /metrics serves.
type Stats struct {
	// BatchesRun counts sweeps executed.
	BatchesRun int64 `json:"batches_run"`
	// QueriesBatched counts queries answered by sweeps (slot-coalesced
	// queries each count).
	QueriesBatched int64 `json:"queries_batched"`
	// MeanBatchSize is slots per sweep, averaged over all sweeps.
	MeanBatchSize float64 `json:"mean_batch_size"`
	// WindowWaits counts sweeps that fired because the window elapsed
	// (the rest fired full).
	WindowWaits int64 `json:"window_waits"`
	// FanoutErrors counts slots whose sweep failed (every seated query
	// of a failed sweep counts once).
	FanoutErrors int64 `json:"fanout_errors"`
	// PlainRuns counts batchable queries sent to the plain runner on
	// arrival: their shape was below the crossover with no batch forming.
	PlainRuns int64 `json:"plain_runs"`
	// ShortWindows counts windows that closed below the crossover and
	// released their waiters to plain runs instead of sweeping.
	ShortWindows int64 `json:"short_windows"`
}

// Stats returns the current counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	if s.BatchesRun > 0 {
		s.MeanBatchSize = float64(c.slots) / float64(s.BatchesRun)
	}
	return s
}
