package server

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"ligra/internal/delta"
	"ligra/internal/server/batch"
	"ligra/internal/server/engine"
	"ligra/internal/server/resilience"
)

// Config parameterizes a Server.
type Config struct {
	// MaxConcurrent bounds the number of queries executing at once; 0
	// selects 2*GOMAXPROCS. Queries beyond the bound wait up to QueueWait
	// for a slot and are then rejected with 429.
	MaxConcurrent int
	// QueueWait is how long an over-admission query may wait for a slot
	// before 429; 0 rejects immediately.
	QueueWait time.Duration
	// DefaultTimeout applies to queries that set no timeout_ms; 0 means
	// unbounded.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-query timeout_ms a client may request; 0
	// selects 60s.
	MaxTimeout time.Duration
	// CacheBytes bounds the query result cache's estimated footprint; 0
	// disables result caching (single-flight coalescing stays on).
	CacheBytes int64
	// MaxQueryProcs caps the worker goroutines one query may lease from
	// the parallelism governor; 0 selects GOMAXPROCS (a lone query still
	// uses the whole machine; concurrent queries share it).
	MaxQueryProcs int
	// BatchWindow bounds how long a queued batchable query (bfs —
	// queued only once its shape's concurrency reaches the sweep
	// crossover) waits for a shared ClusterBFS sweep before it runs
	// plain; 0 selects 2ms; negative disables batching entirely.
	BatchWindow time.Duration
	// BatchMax caps the query slots per shared sweep; 0 selects 64,
	// which is also the hard ceiling (one visit-word bit per slot), and
	// the sweep crossover is the floor.
	BatchMax int

	// ShedTarget is the service-level objective for admission queue
	// wait: once observed waits (EWMA) or the backlog's predicted wait
	// exceed it, new queries are shed immediately with 429 +
	// Retry-After instead of queued. 0 selects 1s; negative disables
	// adaptive shedding (the queue window alone decides).
	ShedTarget time.Duration
	// BreakerThreshold is the consecutive panic/timeout count that opens
	// a per-(algorithm, graph) circuit breaker; 0 selects 5; negative
	// disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe; 0 selects 5s.
	BreakerCooldown time.Duration
	// WatchdogGrace is how far past its deadline a query may keep
	// running before the watchdog trips (stack dump + counter); 0
	// selects 2s; negative disables the watchdog.
	WatchdogGrace time.Duration
	// RetryBudget is the token budget for transient graph-load retries
	// (each retry spends one token; the bucket refills over ~10s); 0
	// selects 10; negative disables load retries.
	RetryBudget int
	// UpdateWindow is the group-commit window for /update batches: the
	// first writer waits this long for companions so a burst of small
	// updates lands as one snapshot. 0 selects 5ms; negative applies
	// each request immediately (concurrent writers still coalesce behind
	// the serialized apply).
	UpdateWindow time.Duration
	// UpdateMaxPending caps the edge ops buffered across forming update
	// commits; past it /update rejects with 429 + Retry-After. 0 selects
	// the delta-store default (1<<20).
	UpdateMaxPending int
	// CompactEvery is the churn threshold (effective ops overlaid on the
	// base snapshot) past which an update commit materializes a flat CSR
	// snapshot. 0 selects max(4096, |E|/8); negative disables
	// compaction.
	CompactEvery int64

	// TrustTenantHeader honors the X-Tenant request header as the
	// tenant identity for fair-share shedding. The header is
	// unauthenticated: enable it only when a trusted gateway in front
	// of this server sets (or strips) it, because a client who can
	// reach the server directly can rotate tenant values to defeat
	// fair-share accounting, or impersonate a victim tenant to get it
	// shed. When false (the default), tenants are identified by client
	// IP and the header is ignored.
	TrustTenantHeader bool

	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
}

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent > 0 {
		return c.MaxConcurrent
	}
	return 2 * runtime.GOMAXPROCS(0)
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return 60 * time.Second
}

// setting is the one default rule of ShedTarget, BreakerThreshold,
// WatchdogGrace, RetryBudget and UpdateWindow: a positive value is used as
// given, a negative value turns the feature off (zero), and zero selects
// def.
func setting[T int | time.Duration](v, def T) T {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	}
	return def
}

func (c Config) updateWindow() time.Duration { return setting(c.UpdateWindow, 5*time.Millisecond) }

// Server is the ligra-serve service: registry + query engine +
// resilience layer + metrics. Create one with New, mount Handler on an
// http.Server, and on shutdown call StartDrain (stop accepting
// queries), then http.Server.Shutdown, then CancelInflight
// (cooperatively cancel whatever drain did not finish).
type Server struct {
	cfg      Config
	log      *slog.Logger
	reg      *Registry
	metrics  *Metrics
	engine   *engine.Engine
	batcher  *batch.Collector // the one entry to engine: plain run or shared sweep
	shed     *resilience.Shedder
	breakers *resilience.Breakers
	watchdog *resilience.Watchdog
	draining atomic.Bool

	// baseCtx reaches every query context (through context.AfterFunc;
	// each is parented on its request); CancelInflight cancels it,
	// stopping cancellable algorithms within one chunk.
	baseCtx        context.Context
	cancelInflight context.CancelFunc

	mux *http.ServeMux
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:     cfg,
		log:     logger,
		reg:     NewRegistry(),
		metrics: NewMetrics(),
		engine: engine.New(engine.NewCache(cfg.CacheBytes),
			engine.NewGovernor(runtime.GOMAXPROCS(0), cfg.MaxQueryProcs)),
		shed: resilience.NewShedder(resilience.ShedderConfig{
			Capacity:  cfg.maxConcurrent(),
			QueueWait: cfg.QueueWait,
			Target:    setting(cfg.ShedTarget, time.Second),
		}),
		breakers: resilience.NewBreakers(setting(cfg.BreakerThreshold, 5), cfg.BreakerCooldown),
	}
	if grace := setting(cfg.WatchdogGrace, 2*time.Second); grace > 0 {
		s.watchdog = resilience.NewWatchdog(grace, logger)
	}
	s.reg.retryBudget = resilience.NewBudget(float64(setting(cfg.RetryBudget, 10)), 0)
	s.reg.retryCfg = resilience.RetryConfig{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}
	s.reg.updatePolicy = delta.Policy{
		Window:       cfg.updateWindow(),
		MaxPending:   cfg.UpdateMaxPending,
		CompactEvery: cfg.CompactEvery,
	}
	s.baseCtx, s.cancelInflight = context.WithCancel(context.Background())
	s.batcher = batch.New(s.baseCtx, s.engine, batch.Config{Window: cfg.BatchWindow, MaxBatch: cfg.BatchMax})
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Registry exposes the graph registry (cmd/ligra-serve preloads through
// it; tests inspect it).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the counter set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the root handler: the API mux wrapped in request
// logging.
func (s *Server) Handler() http.Handler {
	return s.logRequests(s.mux)
}

// StartDrain puts the server into draining mode: /healthz reports 503 (so
// load balancers stop routing here) and new loads/queries are refused
// with 503, while in-flight queries keep running. Safe to call more than
// once.
func (s *Server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("drain started")
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// CancelInflight cancels the context under every executing query;
// cancellable algorithms stop within roughly one chunk of parallel work
// and their requests complete with 504 partial results. Call after the
// drain grace period has elapsed.
func (s *Server) CancelInflight() {
	s.log.Info("cancelling in-flight queries")
	s.cancelInflight()
}

// tenantOf identifies the requester for per-tenant fair-share
// accounting: the X-Tenant header when the deployment declared a
// trusted gateway sets it (Config.TrustTenantHeader), the client IP
// otherwise.
func (s *Server) tenantOf(r *http.Request) string {
	if s.cfg.TrustTenantHeader {
		if t := r.Header.Get("X-Tenant"); t != "" {
			return t
		}
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// logRequests emits one structured log line per request.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}
