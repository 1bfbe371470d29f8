package engine

import (
	"context"
	"errors"
	"sync"

	"ligra/internal/parallel"
)

// RunFunc computes a query result. ctx already carries the governor's
// proc cap (parallel.CtxProcs(ctx) <= procs), so every ctx-aware parallel
// loop reached by the run is bounded; procs is also passed explicitly for
// callers that want to record it or plumb it further.
type RunFunc func(ctx context.Context, procs int) (Value, error)

// Info describes how Execute satisfied a query.
type Info struct {
	// Cached reports a result served from the cache (no execution).
	Cached bool
	// Coalesced reports a result shared from another in-flight execution
	// of the same Key.
	Coalesced bool
	// Procs is the governor lease the execution ran with (0 when the
	// result was cached or coalesced).
	Procs int
}

// flight is one in-progress execution that identical queries attach to.
// val and err are written once, before done is closed; the close is the
// happens-before edge that publishes them to followers.
type flight struct {
	done chan struct{}
	val  Value
	err  error
}

// Engine composes the cache, the single-flight table, and the governor
// into one Execute entry point.
type Engine struct {
	cache *Cache
	gov   *Governor

	mu      sync.Mutex
	flights map[Key]*flight

	stats struct {
		sync.Mutex
		executions int64
		coalesced  int64
	}
}

// New builds an engine. cache may be nil (caching disabled); gov must not
// be nil.
func New(cache *Cache, gov *Governor) *Engine {
	return &Engine{cache: cache, gov: gov, flights: make(map[Key]*flight)}
}

// Cache exposes the result cache (nil when disabled) for invalidation.
func (e *Engine) Cache() *Cache { return e.cache }

// Governor exposes the slot pool for observability.
func (e *Engine) Governor() *Governor { return e.gov }

// InvalidateGraph drops every cached result for the named graph.
func (e *Engine) InvalidateGraph(graph string) int {
	return e.cache.InvalidateGraph(graph)
}

// Execute satisfies one query: from the cache if possible, by attaching
// to an identical in-flight execution if one exists, and otherwise by
// leasing governor slots and running run. Only successful results are
// cached — a partial result from a timeout must not be served to later
// callers with longer budgets.
//
// Followers share the leader's outcome — value, ordinary error or
// contained panic — with one exception: the leader runs under its own
// request context, so when it ends in a context error while the
// follower's ctx is still live, the follower re-enters Execute (leading
// the next flight or attaching to it) rather than answer for a
// cancellation it did not cause. A follower whose own ctx ends first
// detaches and returns its ctx error; the leader keeps running for anyone
// still waiting.
func (e *Engine) Execute(ctx context.Context, k Key, run RunFunc) (Value, Info, error) {
	if v, ok := e.cache.Get(k); ok {
		return v, Info{Cached: true}, nil
	}

	e.mu.Lock()
	if f, ok := e.flights[k]; ok {
		e.mu.Unlock()
		e.stats.Lock()
		e.stats.coalesced++
		e.stats.Unlock()
		select {
		case <-f.done:
			if ctx.Err() == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				return e.Execute(ctx, k, run)
			}
			return f.val, Info{Coalesced: true}, f.err
		case <-ctx.Done():
			return Value{}, Info{Coalesced: true}, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	e.flights[k] = f
	e.mu.Unlock()

	e.stats.Lock()
	e.stats.executions++
	e.stats.Unlock()

	procs, release := e.gov.Acquire()
	v, err := run(parallel.WithProcs(ctx, procs), procs)
	release()

	if err == nil {
		e.cache.Put(k, v)
	}
	e.mu.Lock()
	delete(e.flights, k)
	e.mu.Unlock()
	f.val, f.err = v, err
	close(f.done)
	return v, Info{Procs: procs}, err
}

// Stats is the engine's counter snapshot for /metrics.
type Stats struct {
	// Executions counts queries that actually ran (cache misses that led
	// the flight).
	Executions int64 `json:"executions"`
	// Coalesced counts queries that attached to another query's flight.
	Coalesced int64 `json:"coalesced"`
	// InFlight is the number of distinct executions currently running.
	InFlight int           `json:"in_flight"`
	Cache    CacheStats    `json:"cache"`
	Governor GovernorStats `json:"governor"`
}

// Snapshot captures the counters.
func (e *Engine) Snapshot() Stats {
	e.mu.Lock()
	inFlight := len(e.flights)
	e.mu.Unlock()
	e.stats.Lock()
	ex, co := e.stats.executions, e.stats.coalesced
	e.stats.Unlock()
	return Stats{
		Executions: ex,
		Coalesced:  co,
		InFlight:   inFlight,
		Cache:      e.cache.Stats(),
		Governor:   e.gov.Stats(),
	}
}
