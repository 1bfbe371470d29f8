package server

import (
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/server/resilience"
)

// replyCase is one query outcome of the wire contract (docs/SERVING.md).
type replyCase struct {
	name string
	// cfg adjusts contractConfig for the case.
	cfg func(*Config)
	// setup runs after the graphs load and before the breaker is seeded;
	// the returned func (if any) runs after the request.
	setup func(t *testing.T, s *Server) func()
	// reqCtx, when set, supplies the request context (the client side of a
	// disconnect).
	reqCtx func() (context.Context, func())
	graph  string // default "g"
	algo   string // breaker key; default "bfs"
	body   string

	status     int
	retryAfter string // "" = header absent
	errorType  string // "" = key absent
	keys       []string
	// metrics are the nonzero /metrics deltas the request causes.
	metrics map[string]int64
	// breaker is what the case records on (algo, graph): "success",
	// "failure", or "none" (the breaker was not consulted, or the outcome
	// was aborted).
	breaker string
}

func contractConfig() Config {
	return Config{
		MaxConcurrent:    4,
		DefaultTimeout:   30 * time.Second,
		CacheBytes:       1 << 20,
		BreakerThreshold: 100,
		BreakerCooldown:  time.Minute,
	}
}

var (
	contractPathOnce sync.Once
	contractPath     *graph.Graph
)

// longPath is a graph whose BFS takes far more rounds than any deadline
// below allows, so an interrupted run has always completed a few.
func longPath(t *testing.T) *graph.Graph {
	contractPathOnce.Do(func() {
		var err error
		if contractPath, err = gen.Path(1 << 20); err != nil {
			t.Fatal(err)
		}
	})
	return contractPath
}

// TestQueryReplyContract holds every reply POST /v1/graphs/{name}/query can
// give to its status, Retry-After header, error_type, body keys, /metrics
// deltas and circuit-breaker outcome.
func TestQueryReplyContract(t *testing.T) {
	ok := []string{"algo", "backend", "details", "elapsed_ms", "graph", "procs", "summary"}
	partial := []string{"algo", "backend", "details", "elapsed_ms", "error", "graph", "interrupted_after_round", "partial", "procs", "summary"}
	failed := []string{"algo", "elapsed_ms", "error", "graph", "procs"}
	bare := []string{"error"}
	ran := func(algo string, counters ...string) map[string]int64 {
		m := map[string]int64{"admitted": 1, "algos." + algo + ".requests": 1}
		for _, c := range counters {
			m[c] = 1
		}
		return m
	}
	cases := []replyCase{
		{name: "200 ok", body: `{"algo":"bfs","source":1}`, status: 200, keys: ok,
			metrics: ran("bfs", "backends.edgemap"), breaker: "success"},
		{name: "200 cached", body: `{"algo":"bfs","source":1}`,
			setup: func(t *testing.T, s *Server) func() {
				serveQuery(t, s, context.Background(), "g", `{"algo":"bfs","source":1}`)
				return nil
			},
			status: 200, keys: []string{"algo", "backend", "cached", "details", "elapsed_ms", "graph", "summary"},
			metrics: ran("bfs"), breaker: "none"},
		// spmv is a wire name: edgeMap answers, and says so.
		{name: "200 spmv named", body: `{"algo":"bfs","source":1,"backend":"spmv"}`, status: 200, keys: ok,
			metrics: ran("bfs", "backends.edgemap"), breaker: "success"},
		{name: "400 bad JSON", body: `{"algo":`, status: 400, keys: bare, breaker: "none"},
		{name: "400 unknown algo", body: `{"algo":"nope"}`, status: 400, keys: bare, breaker: "none"},
		{name: "400 bad params", body: `{"algo":"bfs","mode":"diagonal"}`, status: 400, keys: bare, breaker: "none"},
		{name: "400 unknown backend", body: `{"algo":"bfs","backend":"gpu"}`, status: 400, keys: bare, breaker: "none"},
		{name: "400 backend without kernel", algo: "components", body: `{"algo":"components","backend":"spmv"}`,
			status: 400, keys: bare, breaker: "none"},
		{name: "400 source out of range", body: `{"algo":"bfs","source":1073741824}`, status: 400, keys: bare, breaker: "none"},
		{name: "400 batch range", algo: "reach", body: `{"algo":"reach","source":0,"target":1073741824}`,
			status: 400, keys: bare, breaker: "none"},
		{name: "400 algorithm rejects input", algo: "local-cluster", body: `{"algo":"local-cluster","source":0,"alpha":2}`,
			status: 400, keys: failed, metrics: ran("local-cluster", "algos.local-cluster.errors"), breaker: "none"},
		{name: "404", graph: "nope", body: `{"algo":"bfs"}`, status: 404, keys: bare, breaker: "none"},
		{name: "429 shed", body: `{"algo":"bfs","source":1}`,
			cfg: func(c *Config) { c.MaxConcurrent = 1 },
			setup: func(t *testing.T, s *Server) func() {
				dec := s.shed.Admit(context.Background(), "holder")
				if !dec.OK {
					t.Fatal("could not take the only admission slot")
				}
				return dec.Release
			},
			status: 429, retryAfter: "1", errorType: "shed", keys: []string{"error", "error_type", "reason"},
			metrics: map[string]int64{"rejected_429": 1}, breaker: "none"},
		{name: "503 draining", body: `{"algo":"bfs","source":1}`,
			setup:  func(t *testing.T, s *Server) func() { s.StartDrain(); return nil },
			status: 503, retryAfter: "1", keys: bare, breaker: "none"},
		{name: "503 breaker open", body: `{"algo":"bfs","source":1}`,
			cfg:    func(c *Config) { c.BreakerThreshold = 1 }, // the seeded failure opens it
			status: 503, retryAfter: "60", errorType: "breaker_open",
			keys: []string{"algo", "error", "error_type", "graph", "retry_after_ms"}, breaker: "none"},
		{name: "500 contained panic", body: `{"algo":"bfs","source":1}`,
			setup: func(t *testing.T, s *Server) func() {
				return faultinject.PanicOnRound(1, "contract: injected panic")
			},
			status: 500, keys: failed, metrics: ran("bfs", "algos.bfs.panics"), breaker: "failure"},
		{name: "504 client deadline", graph: "path", body: `{"algo":"bfs","source":0,"timeout_ms":100}`,
			status: 504, keys: partial, metrics: ran("bfs", "algos.bfs.timeouts", "backends.edgemap"), breaker: "none"},
		{name: "504 server deadline", graph: "path", body: `{"algo":"bfs","source":0}`,
			cfg:    func(c *Config) { c.DefaultTimeout = 100 * time.Millisecond },
			status: 504, keys: partial, metrics: ran("bfs", "algos.bfs.timeouts", "backends.edgemap"), breaker: "failure"},
		{name: "504 client cancel", graph: "path", body: `{"algo":"bfs","source":0}`,
			reqCtx: func() (context.Context, func()) { return faultinject.CancelOnRound(context.Background(), 3) },
			status: 504, keys: partial, metrics: ran("bfs", "algos.bfs.timeouts", "backends.edgemap"), breaker: "none"},
		// densest ran to completion whatever its ctx before every runner
		// observed it; now it stops after its second peel.
		{name: "504 peeling runner", algo: "densest", body: `{"algo":"densest"}`,
			reqCtx: func() (context.Context, func()) { return faultinject.CancelOnRound(context.Background(), 3) },
			status: 504, keys: slices.DeleteFunc(slices.Clone(partial), func(k string) bool { return k == "backend" }),
			metrics: ran("densest", "algos.densest.timeouts"), breaker: "none"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runReplyCase(t, c) })
	}
}

func runReplyCase(t *testing.T, c replyCase) {
	cfg := contractConfig()
	if c.cfg != nil {
		c.cfg(&cfg)
	}
	s := New(cfg)
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*graph.Graph{"g": g, "path": longPath(t)} {
		if _, err := s.Registry().Load(context.Background(), name, "contract:"+name, func() (graph.View, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	graphName, algoName := c.graph, c.algo
	if graphName == "" {
		graphName = "g"
	}
	if algoName == "" {
		algoName = "bfs"
	}
	if c.setup != nil {
		if cleanup := c.setup(t, s); cleanup != nil {
			defer cleanup()
		}
	}
	// One failure on the case's breaker, so the streak afterwards tells
	// the outcomes apart: 0 success, 1 none, 2 failure.
	bkey := resilience.BreakerKey{Algo: algoName, Graph: graphName}
	s.breakers.Record(bkey, resilience.OutcomeFailure, false)

	ctx := context.Background()
	if c.reqCtx != nil {
		var done func()
		ctx, done = c.reqCtx()
		defer done()
	}
	before := replyCounters(t, s)
	rec := serveQuery(t, s, ctx, graphName, c.body)
	delta := counterDelta(before, replyCounters(t, s))

	if rec.Code != c.status {
		t.Fatalf("status %d, want %d; body %s", rec.Code, c.status, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	if got := rec.Header().Get("Retry-After"); got != c.retryAfter {
		t.Errorf("Retry-After %q, want %q", got, c.retryAfter)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body is not JSON: %v: %s", err, rec.Body)
	}
	keys := make([]string, 0, len(body))
	for k := range body {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, c.keys) {
		t.Errorf("body keys %v, want %v", keys, c.keys)
	}
	if b, ok := body["backend"]; ok && b != "edgemap" {
		t.Errorf("backend %v, want edgemap (the one engine)", b)
	}
	if et, _ := body["error_type"].(string); et != c.errorType {
		t.Errorf("error_type %q, want %q", et, c.errorType)
	}
	if c.status == http.StatusGatewayTimeout && (body["partial"] != true || !strings.Contains(body["error"].(string), "interrupted after round")) {
		t.Errorf("504 without its partial result: %v", body)
	}
	// Every reply, a 504 included, comes after the run gave its lease back.
	if inUse := s.engine.Governor().Stats().InUse; inUse != 0 {
		t.Errorf("%d governor procs still leased after the reply", inUse)
	}
	want := c.metrics
	if want == nil {
		want = map[string]int64{}
	}
	if !maps.Equal(delta, want) {
		t.Errorf("/metrics deltas %v, want %v", delta, want)
	}
	fails := 0
	for _, b := range s.breakers.States() {
		if b.BreakerKey == bkey {
			fails = b.ConsecutiveFailures
		}
	}
	if wantFails := map[string]int{"success": 0, "none": 1, "failure": 2}[c.breaker]; fails != wantFails {
		t.Errorf("breaker streak %d after the request, want %d (%s)", fails, wantFails, c.breaker)
	}
}

// serveQuery sends one query through the full handler stack.
func serveQuery(t *testing.T, s *Server, ctx context.Context, graphName, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/graphs/"+graphName+"/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// replyCounters flattens the /metrics counters a query reply moves.
func replyCounters(t *testing.T, s *Server) map[string]int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	m := map[string]int64{"admitted": snap.Admitted, "rejected_429": snap.Rejected429}
	for name, a := range snap.Algos {
		m["algos."+name+".requests"] = a.Requests
		m["algos."+name+".errors"] = a.Errors
		m["algos."+name+".timeouts"] = a.Timeouts
		m["algos."+name+".panics"] = a.Panics
	}
	for name, n := range snap.Backends {
		m["backends."+name] = n
	}
	return m
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}
