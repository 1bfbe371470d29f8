package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"strconv"
	"time"

	"ligra"
	"ligra/internal/algo"
	"ligra/internal/delta"
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

// reject turns a request away for now: a Retry-After header (seconds,
// rounded up, at least 1) so well-behaved clients back off instead of
// hammering, and a JSON body of the error, its error_type (omitted when
// empty) and any extra fields. docs/SERVING.md lists every reject reply.
func reject(w http.ResponseWriter, status int, retry time.Duration, errorType, msg string, extra map[string]any) {
	w.Header().Set("Retry-After", strconv.FormatInt(max(int64(math.Ceil(retry.Seconds())), 1), 10))
	body := map[string]any{"error": msg}
	if errorType != "" {
		body["error_type"] = errorType
	}
	maps.Copy(body, extra)
	writeJSON(w, status, body)
}

// decode is the preamble of every request that loads, updates or queries
// a graph: a draining server refuses it with 503 (retry in a second,
// against another replica), and the JSON body is decoded into v, a 400 if
// it does not parse. It reports whether the handler goes on.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	if s.Draining() {
		reject(w, http.StatusServiceUnavailable, time.Second, "", "server is draining", nil)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad %s request: %v", what, err)
		return false
	}
	return true
}

// lookupStatus is the status of a failed registry lookup: 404 for an
// unknown or evicted name, 500 for anything else (a failed load).
func lookupStatus(err error) int {
	if errors.Is(err, ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
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
// /healthz?live=1 is the liveness probe — 200 {"status":"ok","graphs":N}
// unless draining (503 {"status":"draining"}) — kept for load-balancer
// drain checks that only look at the status code.
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
	writeJSON(w, http.StatusOK, s.snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	_, info, err := s.reg.Get(r.Context(), r.PathValue("name"))
	if err != nil {
		writeError(w, lookupStatus(err), "%v", err)
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
	case lr.Gen != "":
		source = fmt.Sprintf("gen:%s scale=%d seed=%d", lr.Gen, scale, lr.Seed)
		build = func() (graph.View, error) { return gen.Family(lr.Gen, scale, lr.Seed) }
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
	var req loadRequest
	if !s.decode(w, r, "load", &req) {
		return
	}
	name := r.PathValue("name")
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
	Graph   string `json:"graph"`
	Algo    string `json:"algo"`
	Summary string `json:"summary,omitempty"`
	// Details is the answer's details object as batch.Pack encoded it;
	// the indenting encoder re-indents it with the rest of the reply.
	Details   json.RawMessage `json:"details,omitempty"`
	ElapsedMs float64         `json:"elapsed_ms"`
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
	// Backend names the execution backend that produced the result: it is
	// "edgemap" on every bfs, pagerank and triangles reply, whatever
	// backend the request named, since edgeMap is the one engine.
	Backend string `json:"backend,omitempty"`
}

// handleQuery is the query pipeline: decode → plan → admit → execute →
// render, each stage below.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, "query", &req) {
		return
	}
	q, status, err := s.plan(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	defer q.pin.Release()
	s.admit(w, r, q, func(ctx context.Context) resilience.Outcome {
		val, how, elapsed, err := s.execute(ctx, q)
		return s.render(w, q, val, how, elapsed, err)
	})
}

// query is one planned query. It owns the pin on the snapshot it runs
// against; the handler releases it when the reply is written.
type query struct {
	graph  string
	runner algo.Runner
	params algo.Params // validated, Source resolved
	pin    *delta.Pin
	key    engine.Key
	bkey   resilience.BreakerKey
	// timeout is the deadline the query runs under (0: none);
	// deadlineIndicts says whether its expiry counts against the breaker.
	timeout         time.Duration
	deadlineIndicts bool
}

// plan resolves a decoded request into a query, or fails with the status
// to answer: 400 for what the request got wrong, 404/500 for the graph.
func (s *Server) plan(ctx context.Context, name string, req queryRequest) (*query, int, error) {
	runner, ok := algo.FindRunner(req.Algo)
	if !ok {
		return nil, http.StatusBadRequest, algo.UnknownAlgoError(req.Algo)
	}
	if err := req.Params.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	// Pin the graph's current snapshot for the whole query: the view —
	// including an mmap-backed base — stays valid until the pin is
	// released, even if the graph is evicted or updated mid-query.
	pin, info, err := s.reg.Acquire(ctx, name)
	if err != nil {
		return nil, lookupStatus(err), err
	}
	params, err := bindParams(runner, pin.View(), info.DefaultSource, req)
	if err != nil {
		pin.Release()
		return nil, http.StatusBadRequest, err
	}
	q := &query{
		graph: name, runner: runner, params: params, pin: pin,
		// The cache generation is the pinned snapshot's version: load
		// generations and update versions share one per-name sequence, so
		// a cached result is provably from exactly this snapshot — queries
		// racing an update batch simply key under the version they pinned.
		// The key names the graph by the registry's own string: a cache
		// entry outlives the request whose path name would otherwise
		// hold the whole request line.
		key:  engine.Key{Graph: info.Name, Generation: pin.Version(), Algo: runner.Name, Params: params.Canonical()},
		bkey: resilience.BreakerKey{Algo: runner.Name, Graph: name},
		// A deadline expiry only indicts the (algorithm, graph)
		// combination when the server imposed the deadline. timeout_ms is
		// client-chosen with no minimum, and short-timeout bounded
		// partial-result queries are documented usage — if their expiries
		// counted as breaker failures, a handful of cheap requests from one
		// unauthenticated client would open the breaker and 503 every
		// tenant on a healthy combination.
		timeout: s.cfg.DefaultTimeout, deadlineIndicts: true,
	}
	if req.TimeoutMs > 0 {
		q.timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		q.deadlineIndicts = s.cfg.DefaultTimeout > 0 && q.timeout >= s.cfg.DefaultTimeout
	}
	if max := s.cfg.maxTimeout(); q.timeout > max {
		q.timeout = max
		q.deadlineIndicts = true // clamped: the query got all the server allows
	}
	return q, 0, nil
}

// bindParams checks the request's parameters against the pinned view and
// returns them with the source resolved (omitted: the graph's
// highest-out-degree vertex).
func bindParams(runner algo.Runner, g graph.View, defaultSource uint32, req queryRequest) (algo.Params, error) {
	p := req.Params
	p.Source = defaultSource
	if req.Source != nil {
		if *req.Source < 0 || *req.Source >= int64(g.NumVertices()) {
			return p, fmt.Errorf("source %d out of range (n=%d)", *req.Source, g.NumVertices())
		}
		p.Source = uint32(*req.Source)
	}
	// The runner's checks run before the cache, the batch collector and
	// the refreshers: a directed graph must not reach Pin.RefreshCC, a
	// target or landmark out of range must not start a search, and
	// "spmv" is refused where it never was accepted.
	return p, runner.Validate(g, p)
}

// admit gates q on its circuit breaker, then on the shedder, answering a
// refusal itself; an admitted query runs under its own context — cancelled
// when the server hard-stops (CancelInflight), when the client
// disconnects, or when its deadline expires — and a watchdog entry, and
// the breaker records the outcome run returns.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, q *query, run func(context.Context) resilience.Outcome) {
	// Circuit breaker: a combination that keeps panicking or blowing
	// through deadlines fails fast — before consuming an admission slot
	// — with a typed body a router can act on.
	allowed, probe, wait := s.breakers.Allow(q.bkey)
	if !allowed {
		reject(w, http.StatusServiceUnavailable, wait, "breaker_open",
			fmt.Sprintf("circuit breaker open for %s on %q (repeated panics/timeouts); retry after the cooldown", q.runner.Name, q.graph),
			map[string]any{"algo": q.runner.Name, "graph": q.graph, "retry_after_ms": wait.Milliseconds()})
		return
	}
	// From here on every return path must settle the breaker: a true
	// from Allow in the half-open state is the probe whose outcome the
	// state machine waits for, so Record runs unconditionally — the
	// default Aborted outcome releases a probe slot without moving the
	// state machine or the failure streak.
	outcome := resilience.OutcomeAborted
	defer func() { s.breakers.Record(q.bkey, outcome, probe) }()

	// Admission: adaptive shedding over bounded concurrency — shed with
	// 429 + Retry-After when past the service-level target, after the
	// queue window otherwise.
	dec := s.shed.Admit(r.Context(), s.tenantOf(r))
	if !dec.OK {
		s.metrics.Rejected.Add(1)
		reject(w, http.StatusTooManyRequests, dec.RetryAfter, "shed",
			fmt.Sprintf("server overloaded (%s), retry later", dec.Reason), map[string]any{"reason": string(dec.Reason)})
		return
	}
	admitted := time.Now()
	defer func() {
		s.shed.RecordLatency(time.Since(admitted))
		dec.Release()
	}()
	s.metrics.Admitted.Add(1)

	// Parenting on the request's context cancels the query synchronously
	// when its client hangs up; AfterFunc carries drain's cancellation of
	// baseCtx across, a goroutine hop later.
	var ctx context.Context
	var cancel context.CancelFunc
	if q.timeout > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), q.timeout)
	} else {
		ctx, cancel = context.WithCancel(r.Context())
	}
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()
	// Watchdog: register the deadline so a query the cancellation layer
	// fails to stop is detected, stack-dumped, and counted.
	deadline, _ := ctx.Deadline()
	defer s.watchdog.Done(s.watchdog.Watch(q.graph, q.runner.Name, deadline))
	outcome = run(ctx)
}

// execute runs q through the batch collector, which answers it from the
// cache, a coalesced flight, the plain runner or a shared sweep, and
// reports the wall time in milliseconds.
func (s *Server) execute(ctx context.Context, q *query) (engine.Value, batch.Info, float64, error) {
	am := s.metrics.Algo(q.runner.Name)
	am.Requests.Add(1)
	s.metrics.InFlight.Add(1)
	g := q.pin.View()
	// The plain runner, one closure for every algorithm; the collector
	// decides whether a batchable query (bfs) runs it or
	// rides a shared sweep, and hands everything else straight to the engine.
	// runCtx carries the governor lease as its worker cap, which bounds
	// every pass of whatever runs under it.
	plain := func(runCtx context.Context, _ int) (engine.Value, error) {
		// Algorithms with incremental refresh paths are served from
		// the snapshot store's memoized state when the delta log can
		// carry it forward; everything else runs the plain runner.
		res, handled, err := q.runner.Refresh(runCtx, q.pin, q.params)
		if !handled {
			res, err = q.runner.Run(runCtx, g, q.params)
		}
		return batch.Pack(res), err
	}
	// A sweep's slots share (graph, version, mode, threshold), so every
	// one pinned the identical snapshot. The sweep can outlive this
	// handler's pin (it is detached from any one caller), so it re-pins at
	// execution time and aborts if the graph was evicted.
	sweep := func(sweepCtx context.Context, _ int, slots []batch.Request) ([]engine.Value, error) {
		sweepPin, ok := q.pin.Store().TryAcquire()
		if !ok {
			return nil, fmt.Errorf("graph %q evicted before its batched sweep ran", q.graph)
		}
		defer sweepPin.Release()
		return batch.ClusterRun(sweepCtx, g, slots)
	}
	start := time.Now()
	val, how, err := s.batcher.Execute(ctx, batch.Request{Key: q.key, Runner: q.runner, Params: q.params}, plain, sweep)
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	s.metrics.InFlight.Add(-1)
	am.LatencyMsSum.Add(elapsed)
	return val, how, elapsed, err
}

// render maps an execution's result onto the reply — status, counters and
// body — and returns the breaker outcome it proves.
func (s *Server) render(w http.ResponseWriter, q *query, val engine.Value, how batch.Info, elapsed float64, err error) resilience.Outcome {
	// Cached and coalesced replies prove nothing new about the
	// (algorithm, graph) combination (recording them would also
	// double-count the coalesced leader's outcome), so only an actual
	// execution may promote the outcome past Aborted. A half-open probe
	// can be served from the cache too: the Aborted record releases its
	// probe slot, where skipping Record would wedge the breaker
	// half-open with every later Allow refused.
	executed := !how.Cached && !how.Coalesced
	ans, ok := val.Data.(*batch.Answer)
	if !ok {
		ans = &batch.Answer{}
	}
	if executed && ans.Backend() != "" {
		s.metrics.Backend(ans.Backend()).Add(1)
	}
	resp := queryResponse{
		Graph: q.graph, Algo: q.runner.Name,
		Summary: ans.Summary(), Details: ans.Details(), ElapsedMs: elapsed,
		Cached: how.Cached, Coalesced: how.Coalesced, Procs: how.Procs,
		Batched: how.Batched, BatchSize: how.BatchSize,
		Backend: ans.Backend(),
	}
	am := s.metrics.Algo(q.runner.Name)
	status, outcome := http.StatusOK, resilience.OutcomeSuccess
	if err != nil {
		resp.Error = err.Error()
	}
	var pe *parallel.PanicError
	var re *algo.RoundError
	switch {
	case err == nil:
	case errors.As(err, &pe):
		status, outcome = http.StatusInternalServerError, resilience.OutcomeFailure
		am.Panics.Add(1)
		s.log.Error("query panic contained", "graph", q.graph, "algo", q.runner.Name,
			"panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		resp.Summary, resp.Details = "", nil
		resp.Error = fmt.Sprintf("query panicked (contained): %v", pe.Value)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// 504 with the partial result. Only the expiry of a deadline the
		// server imposed is the combination's failure; a client-requested
		// timeout shorter than the server's own is legitimate bounded-work
		// usage, and a client disconnect or drain cancellation is not the
		// combination's fault, so those stay Aborted.
		status, outcome = http.StatusGatewayTimeout, resilience.OutcomeAborted
		if q.deadlineIndicts && errors.Is(err, context.DeadlineExceeded) {
			outcome = resilience.OutcomeFailure
		}
		am.Timeouts.Add(1)
		resp.Partial = true
		if errors.As(err, &re) {
			resp.InterruptedAfterRound = re.Round
		}
	default:
		// The query's own fault (e.g. invalid input for the
		// algorithm); says nothing about the combination's health.
		status, outcome = http.StatusBadRequest, resilience.OutcomeAborted
		am.Errors.Add(1)
		resp.Summary, resp.Details = "", nil
	}
	writeJSON(w, status, resp)
	if !executed {
		return resilience.OutcomeAborted
	}
	return outcome
}
