package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"ligra"
	"ligra/internal/algo"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/server/batch"
	"ligra/internal/server/engine"
	"ligra/internal/server/resilience"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/graphs", s.handleList)
	s.mux.HandleFunc("POST /v1/graphs/{name}", s.handleLoad)
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleEvict)
	s.mux.HandleFunc("POST /v1/graphs/{name}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/graphs/{name}/update", s.handleUpdate)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfter sets the Retry-After header (seconds, rounded up, at least
// 1) so well-behaved clients back off instead of hammering; see
// docs/SERVING.md for the header contract.
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// healthGraph is one graph's load state in the readiness document.
type healthGraph struct {
	Name string `json:"name"`
	// State is "ready", "loading", or "compacting". A compacting graph
	// keeps serving its current snapshot, so the state is informational
	// and never fails readiness.
	State string `json:"state"`
	// Format names the resident backend ("csr", "compressed",
	// "compressed+mmap", with "+delta" appended while un-compacted
	// updates are overlaid); empty while loading.
	Format string `json:"format,omitempty"`
	// MappedBytes reports mmap residency for compressed+mmap graphs.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// SnapshotVersion is the current snapshot's version (see /metrics for
	// the reader-lag gauges alongside it).
	SnapshotVersion uint64 `json:"snapshot_version,omitempty"`
}

// healthResponse is the readiness document served at /healthz.
type healthResponse struct {
	// Status is "ok", "degraded" (at least one circuit breaker is not
	// closed — the replica serves, but a router should deprioritize
	// it), or "draining".
	Status   string                     `json:"status"`
	Graphs   []healthGraph              `json:"graphs"`
	Breakers []resilience.BreakerStatus `json:"breakers,omitempty"`
	Watchdog map[string]int64           `json:"watchdog,omitempty"`
}

// handleHealthz distinguishes liveness from readiness. Plain /healthz
// is the readiness probe: structured JSON with per-graph load state and
// breaker states, HTTP 200 for "ok"/"degraded" and 503 while draining.
// /healthz?live=1 is the liveness probe with the original bare
// contract — 200 {"status":"ok"} unless draining (503) — kept for
// load-balancer drain checks that only look at the status code.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("live") == "1" {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"graphs": len(s.reg.List()),
		})
		return
	}
	resp := healthResponse{Status: "ok", Graphs: []healthGraph{}}
	for _, info := range s.reg.List() {
		state := "ready"
		switch {
		case info.Loading:
			state = "loading"
		case info.Compacting:
			// Still serving the current snapshot; readiness unaffected.
			state = "compacting"
		}
		resp.Graphs = append(resp.Graphs, healthGraph{
			Name: info.Name, State: state,
			Format: info.Format, MappedBytes: info.MappedBytes,
			SnapshotVersion: info.SnapshotVersion,
		})
	}
	resp.Breakers = s.breakers.States()
	if trips := s.watchdog.Trips(); trips > 0 {
		resp.Watchdog = map[string]int64{"trips": trips}
	}
	status := http.StatusOK
	if s.breakers.OpenCount() > 0 {
		resp.Status = "degraded"
	}
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.reg, s.engine, s.resilienceSnapshot(), s.batcher))
}

// resilienceSnapshot assembles the /metrics resilience block from the
// subsystem's live components.
func (s *Server) resilienceSnapshot() ResilienceSnapshot {
	return ResilienceSnapshot{
		ShedderStats:  s.shed.Stats(),
		BreakerStats:  s.breakers.Stats(),
		BudgetStats:   s.reg.RetryBudget().Stats(),
		WatchdogTrips: s.watchdog.Trips(),
		Breakers:      s.breakers.States(),
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	_, info, err := s.reg.Get(r.Context(), r.PathValue("name"))
	if err != nil {
		status := http.StatusNotFound
		if !errors.Is(err, ErrNotFound) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Evict(name) {
		writeError(w, http.StatusNotFound, "graph not found: %q", name)
		return
	}
	dropped := s.engine.InvalidateGraph(name)
	s.log.Info("graph evicted", "graph", name, "cache_entries_dropped", dropped)
	writeJSON(w, http.StatusOK, map[string]any{"evicted": name})
}

// loadRequest specifies where a graph comes from: a file path (any format
// in docs/FORMATS.md — AdjacencyGraph text, LIGRAGO1 binary, or LIGRAGC1
// compressed, detected by content) or a synthetic generator family.
type loadRequest struct {
	// Path names a graph file; Symmetric declares a text file undirected.
	Path      string `json:"path,omitempty"`
	Symmetric bool   `json:"symmetric,omitempty"`
	// Mmap memory-maps a compressed (LIGRAGC1) file instead of reading it
	// into the heap: the bytes stay in the page cache, so restarts are
	// warm and co-hosted processes share one copy. Rejected for other
	// formats.
	Mmap bool `json:"mmap,omitempty"`
	// Gen generates instead: rmat | grid3d | randlocal | twitter-sim.
	Gen   string `json:"gen,omitempty"`
	Scale int    `json:"scale,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// Weights, when positive, attaches deterministic hash weights in
	// [1, Weights] (for the shortest-path algorithms).
	Weights int32 `json:"weights,omitempty"`
}

// plan canonicalizes the request into a source description (the
// single-flight key alongside the name) and a build function.
func (lr loadRequest) plan() (string, func() (graph.View, error), error) {
	if lr.Path != "" && lr.Gen != "" {
		return "", nil, errors.New(`"path" and "gen" are mutually exclusive`)
	}
	scale := lr.Scale
	if scale == 0 {
		scale = 12
	}
	var source string
	var build func() (graph.View, error)
	switch {
	case lr.Path != "":
		source = fmt.Sprintf("file:%s symmetric=%t", lr.Path, lr.Symmetric)
		if lr.Mmap {
			source += " mmap=true"
		}
		build = func() (graph.View, error) {
			return ligra.Load(lr.Path, ligra.LoadOptions{Symmetric: lr.Symmetric, MMap: lr.Mmap})
		}
	case lr.Gen == "rmat":
		source = fmt.Sprintf("gen:rmat scale=%d seed=%d", scale, lr.Seed)
		build = func() (graph.View, error) { return gen.RMAT(scale, 16, gen.PBBSRMAT, lr.Seed) }
	case lr.Gen == "twitter-sim":
		source = fmt.Sprintf("gen:twitter-sim scale=%d seed=%d", scale, lr.Seed)
		build = func() (graph.View, error) { return gen.RMAT(scale, 15, gen.Graph500RMAT, lr.Seed) }
	case lr.Gen == "grid3d":
		source = fmt.Sprintf("gen:grid3d scale=%d", scale)
		build = func() (graph.View, error) {
			side := 1
			for side*side*side < 1<<scale {
				side++
			}
			return gen.Grid3D(side)
		}
	case lr.Gen == "randlocal":
		source = fmt.Sprintf("gen:randlocal scale=%d seed=%d", scale, lr.Seed)
		build = func() (graph.View, error) {
			n := 1 << scale
			return gen.RandomLocal(n, 10, n/16, lr.Seed)
		}
	case lr.Gen != "":
		return "", nil, fmt.Errorf("unknown generator %q (have rmat | grid3d | randlocal | twitter-sim)", lr.Gen)
	default:
		return "", nil, errors.New(`provide "path" or "gen"`)
	}
	if lr.Weights > 0 {
		source += fmt.Sprintf(" weights=%d", lr.Weights)
		inner := build
		build = func() (graph.View, error) {
			g, err := inner()
			if err != nil {
				return nil, err
			}
			csr, ok := g.(*graph.Graph)
			if !ok {
				return nil, errors.New("weights require a CSR graph; re-weight the source before compressing instead")
			}
			return csr.AddWeights(graph.HashWeight(lr.Weights)), nil
		}
	}
	return source, build, nil
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		retryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("name")
	var req loadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad load request: %v", err)
		return
	}
	source, build, err := req.plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	info, err := s.reg.Load(r.Context(), name, source, build)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrConflict) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	s.log.Info("graph loaded", "graph", name, "source", source,
		"vertices", info.Vertices, "edges", info.Edges,
		"memory_bytes", info.MemoryBytes,
		"dur_ms", float64(time.Since(start).Microseconds())/1000)
	writeJSON(w, http.StatusOK, info)
}

// queryRequest is the body of POST /v1/graphs/{name}/query. Omitted
// fields select per-algorithm defaults (the same ones ligra-run uses).
type queryRequest struct {
	Algo string `json:"algo"`
	// Params contributes the algorithm parameters (seed, k, delta, alpha,
	// eps, mode, threshold) — the same typed set ligra-run builds from its
	// flags, and the set the result cache keys on via Canonical.
	algo.Params
	// Source shadows Params.Source on the wire so that "omitted" is
	// distinguishable: a nil Source selects the graph's
	// highest-out-degree vertex.
	Source *int64 `json:"source,omitempty"`
	// TimeoutMs bounds the query; on expiry the request completes with
	// 504 and the algorithm's partial result.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// queryResponse is the body of a query reply (any status).
type queryResponse struct {
	Graph     string         `json:"graph"`
	Algo      string         `json:"algo"`
	Summary   string         `json:"summary,omitempty"`
	Details   map[string]any `json:"details,omitempty"`
	ElapsedMs float64        `json:"elapsed_ms"`
	// Partial marks an interrupted query whose Summary/Details describe
	// the partial result; InterruptedAfterRound is the number of rounds
	// that completed before the deadline hit.
	Partial               bool   `json:"partial,omitempty"`
	InterruptedAfterRound int    `json:"interrupted_after_round,omitempty"`
	Error                 string `json:"error,omitempty"`
	// Cached marks a result served from the query engine's result cache;
	// Coalesced marks one shared from an identical concurrent query's
	// execution. Procs is the parallelism-governor lease the execution
	// ran with (absent for cached/coalesced replies, which ran nothing).
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	Procs     int  `json:"procs,omitempty"`
	// Batched marks a result answered by a shared multi-source sweep;
	// BatchSize is how many query slots that sweep served. Both are absent
	// on a plain run; the answer is identical either way.
	Batched   bool `json:"batched,omitempty"`
	BatchSize int  `json:"batch_size,omitempty"`
	// Backend names the execution backend that produced the result
	// ("edgemap" or "spmv"; "auto" requests report what auto resolved to).
	// Cached and coalesced replies report the backend of the execution
	// that filled the cache — the backends are bit-identical, so the
	// result is the same either way.
	Backend string `json:"backend,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		retryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("name")
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad query request: %v", err)
		return
	}
	runner, ok := algo.FindRunner(req.Algo)
	if !ok {
		writeError(w, http.StatusBadRequest, "%v", algo.UnknownAlgoError(req.Algo))
		return
	}
	if err := req.Params.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Pin the graph's current snapshot for the whole query: the view —
	// including an mmap-backed base — stays valid until the pin is
	// released, even if the graph is evicted or updated mid-query.
	pin, info, err := s.reg.Acquire(r.Context(), name)
	if err != nil {
		status := http.StatusNotFound
		if !errors.Is(err, ErrNotFound) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", err)
		return
	}
	defer pin.Release()
	g := pin.View()
	source := info.DefaultSource
	if req.Source != nil {
		if *req.Source < 0 || *req.Source >= int64(g.NumVertices()) {
			writeError(w, http.StatusBadRequest, "source %d out of range (n=%d)", *req.Source, g.NumVertices())
			return
		}
		source = uint32(*req.Source)
	}
	// Batchable algorithms validate their extra parameters (reach
	// targets, landmark lists) up front: the batched path extracts
	// answers straight from the shared sweep, so a range error must be
	// rejected here rather than silently read as "unreachable".
	if err := algo.BatchValidate(runner.Name, g.NumVertices(), req.Params); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Resolve the execution backend against the pinned view (Validate only
	// checked the name; whether this algorithm has an spmv kernel is
	// decided here, the runner resolves it again to dispatch).
	if _, err := algo.ResolveBackend(runner.Name, g, req.Params); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Circuit breaker: a combination that keeps panicking or blowing
	// through deadlines fails fast — before consuming an admission slot
	// — with a typed body a router can act on.
	bkey := resilience.BreakerKey{Algo: runner.Name, Graph: name}
	allowed, probe, wait := s.breakers.Allow(bkey)
	if !allowed {
		retryAfter(w, wait)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":          fmt.Sprintf("circuit breaker open for %s on %q (repeated panics/timeouts); retry after the cooldown", runner.Name, name),
			"error_type":     "breaker_open",
			"algo":           runner.Name,
			"graph":          name,
			"retry_after_ms": wait.Milliseconds(),
		})
		return
	}
	// From here on every return path must settle the breaker: a true
	// from Allow in the half-open state is the probe whose outcome the
	// state machine waits for, so Record runs unconditionally — the
	// default Aborted outcome releases a probe slot without moving the
	// state machine or the failure streak.
	outcome := resilience.OutcomeAborted
	defer func() {
		s.breakers.Record(bkey, outcome, probe)
	}()

	// Admission: adaptive shedding over bounded concurrency — shed with
	// 429 + Retry-After when past the service-level target, after the
	// queue window otherwise.
	dec := s.shed.Admit(r.Context(), s.tenantOf(r))
	if !dec.OK {
		s.metrics.Rejected.Add(1)
		retryAfter(w, dec.RetryAfter)
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":      fmt.Sprintf("server overloaded (%s), retry later", dec.Reason),
			"error_type": "shed",
			"reason":     string(dec.Reason),
		})
		return
	}
	admitted := time.Now()
	defer func() {
		s.shed.RecordLatency(time.Since(admitted))
		dec.Release()
	}()
	s.metrics.Admitted.Add(1)

	// The query context: cancelled when the server hard-stops
	// (CancelInflight), when the client disconnects, or when the
	// query's deadline expires.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()
	// A deadline expiry only indicts the (algorithm, graph) combination
	// when the server imposed the deadline. timeout_ms is client-chosen
	// with no minimum, and short-timeout bounded partial-result queries
	// are documented usage — if their expiries counted as breaker
	// failures, a handful of cheap requests from one unauthenticated
	// client would open the breaker and 503 every tenant on a healthy
	// combination.
	timeout := s.cfg.DefaultTimeout
	deadlineIndicts := true
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		deadlineIndicts = s.cfg.DefaultTimeout > 0 && timeout >= s.cfg.DefaultTimeout
	}
	if max := s.cfg.maxTimeout(); timeout > max {
		timeout = max
		deadlineIndicts = true // clamped: the query got all the server allows
	}
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}

	params := req.Params
	params.Source = source
	// The cache generation is the pinned snapshot's version: load
	// generations and update versions share one per-name sequence, so a
	// cached result is provably from exactly this snapshot — queries
	// racing an update batch simply key under the version they pinned.
	key := engine.Key{
		Graph:      name,
		Generation: pin.Version(),
		Algo:       runner.Name,
		Params:     params.Canonical(),
	}
	am := s.metrics.Algo(runner.Name)
	am.Requests.Add(1)
	s.metrics.InFlight.Add(1)
	// Watchdog: register the deadline so a query the cancellation layer
	// fails to stop is detected, stack-dumped, and counted.
	var qDeadline time.Time
	if d, ok := ctx.Deadline(); ok {
		qDeadline = d
	}
	wid := s.watchdog.Watch(name, runner.Name, qDeadline)
	start := time.Now()
	// The plain runner, one closure for every algorithm; the collector
	// decides whether a batchable query (bfs, reach, landmarks) runs it or
	// rides a shared sweep, and hands everything else straight to the engine.
	plain := func(runCtx context.Context, procs int) (engine.Value, error) {
		p := params
		p.EdgeMap.Procs = procs // cap every edgeMap of the run at the lease
		// Algorithms with incremental refresh paths are served from
		// the snapshot store's memoized state when the delta log can
		// carry it forward; everything else runs the plain runner.
		if v, handled, err := incrementalRun(runCtx, pin, runner.Name, p); handled {
			return v, err
		}
		res, err := safeRun(runner, runCtx, g, p)
		return engine.Value{Data: res, Bytes: res.EstimateBytes()}, err
	}
	// A sweep's slots share (graph, version, mode, threshold), so every
	// one pinned the identical snapshot. The sweep can outlive this
	// handler's pin (it is detached from any one caller), so it re-pins at
	// execution time and aborts if the graph was evicted.
	sweep := func(sweepCtx context.Context, procs int, slots []batch.Request) ([]engine.Value, error) {
		sweepPin, ok := pin.Store().TryAcquire()
		if !ok {
			return nil, fmt.Errorf("graph %q evicted before its batched sweep ran", name)
		}
		defer sweepPin.Release()
		return batch.ClusterRun(sweepCtx, g, procs, slots)
	}
	val, how, err := s.batcher.Execute(ctx, batch.Request{Key: key, Algo: runner.Name, Params: params}, plain, sweep)
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	s.watchdog.Done(wid)
	s.metrics.InFlight.Add(-1)
	am.LatencyMsSum.Add(elapsed)

	// Cached and coalesced replies prove nothing new about the
	// (algorithm, graph) combination (recording them would also
	// double-count the coalesced leader's outcome), so only an actual
	// execution may promote the outcome past Aborted. A half-open probe
	// can be served from the cache too: the Aborted record releases its
	// probe slot, where skipping Record would wedge the breaker
	// half-open with every later Allow refused.
	executed := !how.Cached && !how.Coalesced

	res, _ := val.Data.(algo.RunResult)
	resBackend, _ := res.Details["backend"].(string)
	if executed && resBackend != "" {
		s.metrics.Backend(resBackend).Add(1)
	}
	resp := queryResponse{
		Graph: name, Algo: runner.Name,
		Summary: res.Summary, Details: sanitizeDetails(res.Details), ElapsedMs: elapsed,
		Cached: how.Cached, Coalesced: how.Coalesced, Procs: how.Procs,
		Batched: how.Batched, BatchSize: how.BatchSize,
		Backend: resBackend,
	}
	var pe *parallel.PanicError
	var re *algo.RoundError
	switch {
	case err == nil:
		if executed {
			outcome = resilience.OutcomeSuccess
		}
		writeJSON(w, http.StatusOK, resp)
	case errors.As(err, &pe):
		if executed {
			outcome = resilience.OutcomeFailure
		}
		am.Panics.Add(1)
		s.log.Error("query panic contained", "graph", name, "algo", runner.Name,
			"panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		resp.Summary, resp.Details = "", nil
		resp.Error = fmt.Sprintf("query panicked (contained): %v", pe.Value)
		writeJSON(w, http.StatusInternalServerError, resp)
	case errors.Is(err, context.DeadlineExceeded):
		// Expiry of a client-requested timeout shorter than the server's
		// own is legitimate bounded-work usage, not a failure: the
		// outcome stays Aborted.
		if executed && deadlineIndicts {
			outcome = resilience.OutcomeFailure
		}
		am.Timeouts.Add(1)
		resp.Partial = true
		if errors.As(err, &re) {
			resp.InterruptedAfterRound = re.Round
		}
		resp.Error = err.Error()
		writeJSON(w, http.StatusGatewayTimeout, resp)
	case errors.Is(err, context.Canceled):
		// Client disconnect or drain cancellation: not the
		// combination's fault, so the breaker records nothing
		// (outcome stays Aborted).
		am.Timeouts.Add(1)
		resp.Partial = true
		if errors.As(err, &re) {
			resp.InterruptedAfterRound = re.Round
		}
		resp.Error = err.Error()
		writeJSON(w, http.StatusGatewayTimeout, resp)
	default:
		// The query's own fault (e.g. invalid input for the
		// algorithm); says nothing about the combination's health.
		am.Errors.Add(1)
		resp.Summary, resp.Details = "", nil
		resp.Error = err.Error()
		writeJSON(w, http.StatusBadRequest, resp)
	}
}

// sanitizeDetails renders non-finite floats as strings, which
// encoding/json cannot represent (a partial PageRank result, for
// example, reports an +Inf L1 change).
func sanitizeDetails(d map[string]any) map[string]any {
	for k, v := range d {
		if f, ok := v.(float64); ok && (math.IsInf(f, 0) || math.IsNaN(f)) {
			d[k] = fmt.Sprint(f)
		}
	}
	return d
}

// safeRun executes one query with panic containment: worker panics
// already surface as *parallel.PanicError from the Ctx entry points, and
// any panic on the query goroutine itself (including re-panics from
// non-cancellable algorithms) is converted to one here, so a bad query
// can never take down the process.
func safeRun(runner algo.Runner, ctx context.Context, g graph.View, p algo.Params) (res algo.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = parallel.AsPanicError(r)
		}
	}()
	return runner.Run(ctx, g, p)
}
