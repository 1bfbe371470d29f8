// ligra-serve is the long-running graph analytics server: it keeps a
// registry of named graphs resident in memory and serves algorithm
// queries over HTTP/JSON, with per-request deadlines, adaptive load
// shedding (429+Retry-After past the -shed-target-ms SLO, with
// per-tenant fair share), per-(algorithm, graph) circuit breakers,
// retrying graph loads under a -retry-budget, a query watchdog, panic
// containment, and built-in observability.
//
// Usage:
//
//	ligra-serve -addr :8090 -max-concurrent 8
//	ligra-serve -preload social=graphs/social.adj,symmetric
//	ligra-serve -preload web=graphs/web.gc,mmap
//
// Endpoints:
//
//	GET    /healthz                  readiness: graph + breaker states ("ok"|"degraded"; 503 draining)
//	GET    /healthz?live=1           liveness: bare OK (503 while draining)
//	GET    /metrics                  counters + per-graph memory (JSON)
//	GET    /v1/graphs                list registered graphs
//	POST   /v1/graphs/{name}         load {"path":...} or {"gen":"rmat",...}
//	GET    /v1/graphs/{name}         one graph's stats
//	DELETE /v1/graphs/{name}         evict
//	POST   /v1/graphs/{name}/query   {"algo":"bfs","source":0,"timeout_ms":500}
//	POST   /v1/graphs/{name}/update  {"ops":[{"src":1,"dst":2},{"src":3,"dst":4,"del":true}]}
//
// Graphs are dynamic: /update applies batched edge inserts/deletes as
// versioned immutable snapshots (group-committed within
// -update-window-ms, compacted past -compact-threshold), queries run
// against the snapshot they pinned, and connected-components /
// pagerank-delta queries refresh incrementally from the delta log.
//
// On SIGTERM/SIGINT the server drains: it stops accepting queries,
// gives in-flight ones -drain-timeout to finish, then cancels the rest
// cooperatively (their clients receive 504 partial results) before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ligra"
	"ligra/internal/graph"
	"ligra/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ligra-serve:", err)
		os.Exit(1)
	}
}

// preloadSpec is one -preload flag value: "name=path[,symmetric][,mmap]".
type preloadSpec struct {
	name, path      string
	symmetric, mmap bool
}

func parsePreload(v string) (preloadSpec, error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return preloadSpec{}, fmt.Errorf("bad -preload %q (want name=path[,symmetric][,mmap])", v)
	}
	spec := preloadSpec{name: name}
	parts := strings.Split(rest, ",")
	spec.path = parts[0]
	if spec.path == "" {
		return preloadSpec{}, fmt.Errorf("bad -preload %q (want name=path[,symmetric][,mmap])", v)
	}
	for _, attr := range parts[1:] {
		switch attr {
		case "symmetric":
			spec.symmetric = true
		case "mmap":
			// Memory-map a compressed (LIGRAGC1) file: warm restarts,
			// page-cache sharing across processes. Rejected at load time
			// for other formats.
			spec.mmap = true
		default:
			return preloadSpec{}, fmt.Errorf("bad -preload attribute %q (have \"symmetric\", \"mmap\")", attr)
		}
	}
	return spec, nil
}

// preloadList collects repeated -preload flags.
type preloadList []preloadSpec

func (p *preloadList) String() string { return fmt.Sprint(*p) }

func (p *preloadList) Set(v string) error {
	spec, err := parsePreload(v)
	if err != nil {
		return err
	}
	*p = append(*p, spec)
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("ligra-serve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var preloads preloadList
	var (
		addr           = fs.String("addr", ":8090", "listen address")
		maxConcurrent  = fs.Int("max-concurrent", 0, "queries executing at once (0 = 2*GOMAXPROCS); excess queues then gets 429")
		queueWait      = fs.Duration("queue-wait", 100*time.Millisecond, "how long an over-admission query waits for a slot before 429")
		defaultTimeout = fs.Duration("default-timeout", 30*time.Second, "deadline for queries that set no timeout_ms (0 = unbounded)")
		maxTimeout     = fs.Duration("max-timeout", 60*time.Second, "upper bound on client-requested timeout_ms")
		drainTimeout   = fs.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight queries before cancelling them")
		cacheMB        = fs.Int64("cache-mb", 64, "query result cache budget in MiB (0 = caching off; coalescing stays on)")
		maxQueryProcs  = fs.Int("max-query-procs", 0, "worker goroutines one query may use (0 = GOMAXPROCS); concurrent queries share the CPU-slot pool")
		shedTargetMs   = fs.Int("shed-target-ms", 1000, "admission-wait SLO in ms; past it new queries are shed with 429+Retry-After (0 = default 1s, negative = adaptive shedding off)")
		breakerThresh  = fs.Int("breaker-threshold", 5, "consecutive panics/timeouts that open a per-(algo,graph) circuit breaker (negative = breakers off)")
		breakerCool    = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before a half-open probe")
		retryBudget    = fs.Int("retry-budget", 10, "token budget for transient graph-load retries (negative = retries off)")
		watchdogGrace  = fs.Duration("watchdog-grace", 2*time.Second, "how far past its deadline a query may run before the watchdog trips (negative = watchdog off)")
		batchWindowMs  = fs.Int("batch-window-ms", 2, "longest a queued batchable query (bfs/reach/landmarks) waits for a shared sweep; queries queue only once their concurrency reaches the sweep crossover, below it they run at once (0 = default 2ms, negative = batching off)")
		batchMax       = fs.Int("batch-max", 64, "max query slots per shared multi-source sweep (<= 64, one visit-word bit each; never below the sweep crossover)")
		updateWindowMs = fs.Int("update-window-ms", 5, "group-commit window for /update batches: the first writer waits this long for companions (0 = default 5ms, negative = apply immediately)")
		updatePending  = fs.Int("update-max-pending", 0, "max edge ops buffered across forming update commits before 429 (0 = delta-store default)")
		compactEvery   = fs.Int64("compact-threshold", 0, "overlaid edge-op churn that triggers snapshot compaction (0 = max(4096, edges/8), negative = compaction off)")
		trustTenant    = fs.Bool("trust-tenant-header", false, "honor the X-Tenant header for fair-share shedding; enable only behind a gateway that sets it (otherwise tenants are client IPs)")
		logJSON        = fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	fs.Var(&preloads, "preload", "load a graph at startup: name=path[,symmetric][,mmap] (repeatable; mmap maps a compressed file instead of heap-loading it)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	srv := server.New(server.Config{
		MaxConcurrent:     *maxConcurrent,
		QueueWait:         *queueWait,
		DefaultTimeout:    *defaultTimeout,
		MaxTimeout:        *maxTimeout,
		CacheBytes:        *cacheMB << 20,
		MaxQueryProcs:     *maxQueryProcs,
		ShedTarget:        time.Duration(*shedTargetMs) * time.Millisecond,
		BreakerThreshold:  *breakerThresh,
		BreakerCooldown:   *breakerCool,
		RetryBudget:       *retryBudget,
		WatchdogGrace:     *watchdogGrace,
		BatchWindow:       time.Duration(*batchWindowMs) * time.Millisecond,
		BatchMax:          *batchMax,
		UpdateWindow:      time.Duration(*updateWindowMs) * time.Millisecond,
		UpdateMaxPending:  *updatePending,
		CompactEvery:      *compactEvery,
		TrustTenantHeader: *trustTenant,
		Logger:            logger,
	})
	for _, p := range preloads {
		// The source string must match what POST /v1/graphs would build
		// for the same request, so a later identical load joins this
		// residency instead of conflicting.
		source := fmt.Sprintf("file:%s symmetric=%t", p.path, p.symmetric)
		if p.mmap {
			source += " mmap=true"
		}
		info, err := srv.Registry().Load(context.Background(), p.name, source,
			func() (graph.View, error) {
				return ligra.Load(p.path, ligra.LoadOptions{Symmetric: p.symmetric, MMap: p.mmap})
			})
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		logger.Info("preloaded", "graph", p.name, "path", p.path,
			"format", info.Format, "memory_bytes", info.MemoryBytes, "mapped_bytes", info.MappedBytes)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	return serve(srv, ln, sigCh, *drainTimeout, logger)
}

// serve runs the HTTP server on ln until a signal arrives on sigCh, then
// drains: stop accepting, wait up to drainTimeout for in-flight requests,
// cancel whatever remains, and return once the server has shut down.
func serve(srv *server.Server, ln net.Listener, sigCh <-chan os.Signal, drainTimeout time.Duration, logger *slog.Logger) error {
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String())

	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		logger.Info("shutdown signal", "signal", fmt.Sprint(sig))
	}

	// Drain: refuse new queries, let in-flight ones finish, then cancel
	// the stragglers cooperatively and wait for their handlers to write
	// their 504 partial-result responses.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(ctx)
	if shutdownErr != nil {
		logger.Warn("drain period expired with queries in flight; cancelling them", "err", shutdownErr)
		srv.CancelInflight()
		ctx2, cancel2 := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel2()
		shutdownErr = httpSrv.Shutdown(ctx2)
	}
	<-errCh // Serve has returned http.ErrServerClosed
	logger.Info("shutdown complete")
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}
