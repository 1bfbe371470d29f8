package server

import (
	"expvar"
	"sync"
	"time"

	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/parallel"
	"ligra/internal/server/batch"
	"ligra/internal/server/engine"
	"ligra/internal/server/resilience"
)

// Metrics is the server's counter set, built from expvar's atomic types
// but scoped to one Server instance (nothing is published to the global
// expvar registry, so tests can run many servers in one process). The
// /metrics endpoint renders a Snapshot as JSON.
type Metrics struct {
	start time.Time

	// InFlight is the number of queries currently executing.
	InFlight expvar.Int
	// Admitted counts queries that acquired an admission slot.
	Admitted expvar.Int
	// Rejected counts queries turned away with 429 (admission full).
	Rejected expvar.Int

	mu    sync.Mutex
	algos map[string]*AlgoMetrics
	// backends counts executed (non-cached, non-coalesced) queries by the
	// execution backend that ran them ("edgemap" / "spmv"), so the mix of
	// edgeMap and semiring-kernel executions is observable.
	backends map[string]*expvar.Int
}

// AlgoMetrics is one algorithm's counter set.
type AlgoMetrics struct {
	// Requests counts queries dispatched to the algorithm.
	Requests expvar.Int
	// Errors counts queries that failed for reasons other than a
	// timeout or a contained panic (e.g. invalid input for the algorithm).
	Errors expvar.Int
	// Timeouts counts queries interrupted by deadline or cancellation
	// (the client got a 504 with a partial result).
	Timeouts expvar.Int
	// Panics counts queries whose worker panicked; the panic was
	// contained and the server kept serving.
	Panics expvar.Int
	// LatencyMsSum accumulates wall-clock execution milliseconds, so
	// LatencyMsSum/Requests is the mean latency.
	LatencyMsSum expvar.Float
}

// NewMetrics returns a zeroed metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		algos:    make(map[string]*AlgoMetrics),
		backends: make(map[string]*expvar.Int),
	}
}

// Backend returns (creating on first use) the named execution backend's
// executed-query counter.
func (m *Metrics) Backend(name string) *expvar.Int {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.backends[name]
	if !ok {
		b = &expvar.Int{}
		m.backends[name] = b
	}
	return b
}

// Algo returns (creating on first use) the named algorithm's counters.
func (m *Metrics) Algo(name string) *AlgoMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.algos[name]
	if !ok {
		a = &AlgoMetrics{}
		m.algos[name] = a
	}
	return a
}

// AlgoSnapshot is the JSON rendering of one algorithm's counters.
type AlgoSnapshot struct {
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Timeouts     int64   `json:"timeouts"`
	Panics       int64   `json:"panics"`
	LatencyMsSum float64 `json:"latency_ms_sum"`
}

// Snapshot is the JSON document served at /metrics.
type Snapshot struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	InFlight      int64                   `json:"in_flight"`
	Admitted      int64                   `json:"admitted"`
	Rejected429   int64                   `json:"rejected_429"`
	Algos         map[string]AlgoSnapshot `json:"algos"`
	// Backends counts executed queries per execution backend ("edgemap" /
	// "spmv"); cached and coalesced replies are not counted (they ran
	// nothing). Empty until a backend-reporting algorithm executes.
	Backends   map[string]int64 `json:"backends,omitempty"`
	Graphs     []GraphInfo      `json:"graphs"`
	GraphBytes int64            `json:"graph_bytes_total"`
	// GraphMappedBytes totals the memory-mapped (page-cache resident)
	// bytes of mmap-backed graphs, reported separately from the heap
	// bytes in graph_bytes_total.
	GraphMappedBytes int64 `json:"graph_mapped_bytes_total,omitempty"`
	// Query is the query engine's counter set: result-cache
	// hits/misses/evictions and footprint, coalesced query counts, and
	// parallelism-governor slot occupancy.
	Query engine.Stats `json:"query_engine"`
	// Traversal is the process-wide edgeMap counter set (calls, the
	// sparse/dense decision split, frontier sizes, edges weighed), so the
	// direction-optimization behaviour of served queries is observable.
	Traversal core.StatsSnapshot `json:"traversal"`
	// Scheduler is the worker-pool scheduler's counter set (pool size,
	// dispatches vs inline runs including the sequential cutoff, worker
	// park/wake counts), so per-query scheduling overhead — and whether
	// governor-leased queries are dispatching at all — is observable.
	Scheduler parallel.SchedulerStats `json:"scheduler"`
	// Resilience is the overload-protection subsystem's counter set:
	// shed decisions by reason, breaker transitions and current open
	// states, retry-budget spend, and watchdog trips.
	Resilience ResilienceSnapshot `json:"resilience"`
	// Batch is the batch collector's counter set (sweeps run, queries
	// batched, mean batch size, window fires, fanout errors, plain runs,
	// short windows); all-zero when batching is disabled.
	Batch batch.Stats `json:"batch"`
	// Updates aggregates every resident graph's delta-store counters:
	// update batches and requests, effective edge inserts/deletes,
	// no-ops, backlog rejections, compactions, and how often the
	// incremental refreshers replayed the delta log versus recomputing.
	// Per-graph snapshot_version / pinned_readers gauges live on the
	// entries in Graphs.
	Updates delta.Stats `json:"updates"`
}

// ResilienceSnapshot is the /metrics "resilience" block, flattening the
// shedder, breaker, retry-budget, and watchdog counters plus the list
// of breakers currently away from the closed state.
type ResilienceSnapshot struct {
	resilience.ShedderStats
	resilience.BreakerStats
	resilience.BudgetStats
	// WatchdogTrips counts queries caught running past deadline+grace;
	// any non-zero value is a runtime bug (the cancellation layer
	// failed to stop a query) and fails the chaos suite.
	WatchdogTrips int64 `json:"watchdog_trips"`
	// Breakers lists every breaker not pristine-closed, with state and
	// (for open ones) time until the next probe.
	Breakers []resilience.BreakerStatus `json:"breakers,omitempty"`
}

// Snapshot captures every counter plus the registry's per-graph memory
// estimates, the query engine's counters (eng may be nil), the
// resilience block assembled by the caller, and the batch collector's
// counters (bat may be nil).
func (m *Metrics) Snapshot(reg *Registry, eng *engine.Engine, res ResilienceSnapshot, bat *batch.Collector) Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      m.InFlight.Value(),
		Admitted:      m.Admitted.Value(),
		Rejected429:   m.Rejected.Value(),
		Algos:         make(map[string]AlgoSnapshot),
	}
	m.mu.Lock()
	for name, a := range m.algos {
		s.Algos[name] = AlgoSnapshot{
			Requests:     a.Requests.Value(),
			Errors:       a.Errors.Value(),
			Timeouts:     a.Timeouts.Value(),
			Panics:       a.Panics.Value(),
			LatencyMsSum: a.LatencyMsSum.Value(),
		}
	}
	if len(m.backends) > 0 {
		s.Backends = make(map[string]int64, len(m.backends))
		for name, b := range m.backends {
			s.Backends[name] = b.Value()
		}
	}
	m.mu.Unlock()
	if reg != nil {
		s.Graphs = reg.List()
		for _, info := range s.Graphs {
			s.GraphBytes += info.MemoryBytes
			s.GraphMappedBytes += info.MappedBytes
		}
		s.Updates = reg.UpdateStats()
	}
	if eng != nil {
		s.Query = eng.Snapshot()
	}
	s.Traversal = core.SnapshotStats()
	s.Scheduler = parallel.SchedulerSnapshot()
	s.Resilience = res
	if bat != nil {
		s.Batch = bat.Stats()
	}
	return s
}
