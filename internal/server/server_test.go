package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
)

// newTestServer returns a Server with test-friendly bounds and its
// httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	return resp.StatusCode, out
}

func metricsSnapshot(t *testing.T, baseURL string) Snapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// waitInFlight polls /metrics until at least n queries are executing.
func waitInFlight(t *testing.T, baseURL string, n int64) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if metricsSnapshot(t, baseURL).InFlight >= n {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestServerEndToEnd drives the full lifecycle the issue's acceptance
// criteria name: load from a file → list/stats → concurrent queries →
// deadline-interrupted query (504 + partial round) → fault-injected panic
// (500, server survives, counter increments) → evict, with /metrics
// verified along the way.
func TestServerEndToEnd(t *testing.T) {
	// Write a small RMAT graph to disk so the load path exercises file IO.
	g, err := gen.RMAT(11, 16, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rmat11.bin")
	if err := graph.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{MaxConcurrent: 4, QueueWait: 200 * time.Millisecond})

	// Load.
	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/small", map[string]any{"path": path})
	if status != http.StatusOK {
		t.Fatalf("load: status %d, body %v", status, body)
	}
	if int(body["vertices"].(float64)) != g.NumVertices() {
		t.Fatalf("load reported %v vertices, want %d", body["vertices"], g.NumVertices())
	}
	if body["memory_bytes"].(float64) <= 0 {
		t.Error("load reported no memory estimate")
	}

	// Reload with the same spec is idempotent; with a different one, 409.
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/small", map[string]any{"path": path}); status != http.StatusOK {
		t.Fatalf("idempotent reload: status %d", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/small", map[string]any{"gen": "rmat"}); status != http.StatusConflict {
		t.Fatalf("conflicting reload: status %d, want 409", status)
	}

	// A second, generated graph big enough that interruption is certain.
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/big", map[string]any{"gen": "rmat", "scale": 14}); status != http.StatusOK {
		t.Fatalf("gen load: status %d, body %v", status, body)
	}

	// List and stats.
	if status, body := doJSON(t, "GET", ts.URL+"/v1/graphs", nil); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	} else if n := len(body["graphs"].([]any)); n != 2 {
		t.Fatalf("list: %d graphs, want 2", n)
	}
	if status, body := doJSON(t, "GET", ts.URL+"/v1/graphs/small", nil); status != http.StatusOK || body["name"] != "small" {
		t.Fatalf("stats: status %d, body %v", status, body)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/graphs/nope", nil); status != http.StatusNotFound {
		t.Fatalf("missing graph: status %d, want 404", status)
	}

	// N concurrent queries over one registered graph all complete.
	queries := []map[string]any{
		{"algo": "bfs", "source": 0},
		{"algo": "bfs"},
		{"algo": "components"},
		{"algo": "components", "mode": "sparse"},
		{"algo": "pagerank"},
		{"algo": "kcore"},
		{"algo": "mis"},
		{"algo": "triangles"},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q map[string]any) {
			defer wg.Done()
			status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/small/query", q)
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("query %v: status %d, body %v", q, status, body)
				return
			}
			if body["summary"] == nil || body["summary"] == "" {
				errs[i] = fmt.Errorf("query %v: empty summary", q)
			}
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Bad requests.
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/small/query", map[string]any{"algo": "nope"}); status != http.StatusBadRequest {
		t.Fatalf("unknown algo: status %d, want 400", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/small/query", map[string]any{"algo": "bfs", "source": 1 << 30}); status != http.StatusBadRequest {
		t.Fatalf("out-of-range source: status %d, want 400", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/nope/query", map[string]any{"algo": "bfs"}); status != http.StatusNotFound {
		t.Fatalf("query on missing graph: status %d, want 404", status)
	}

	// Deadline: a 1ms budget cannot complete 100 PageRank iterations on
	// the scale-14 graph; the reply is 504 with the partial result and
	// the round the run was interrupted after.
	status, body = doJSON(t, "POST", ts.URL+"/v1/graphs/big/query",
		map[string]any{"algo": "pagerank", "timeout_ms": 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: status %d, body %v, want 504", status, body)
	}
	if body["partial"] != true {
		t.Errorf("deadline query: partial flag missing: %v", body)
	}
	if _, ok := body["summary"].(string); !ok {
		t.Errorf("deadline query: no partial summary: %v", body)
	}
	if !strings.Contains(body["error"].(string), "interrupted after round") {
		t.Errorf("deadline query: error %q does not report the round", body["error"])
	}

	// Fault-injected panic: the worker panic is contained, the client
	// gets 500, the counter increments, and the server keeps serving.
	disarm := faultinject.PanicOnChunk(1, "injected query panic")
	status, body = doJSON(t, "POST", ts.URL+"/v1/graphs/small/query", map[string]any{"algo": "bfs"})
	disarm()
	if status != http.StatusInternalServerError {
		t.Fatalf("panic query: status %d, body %v, want 500", status, body)
	}
	if !strings.Contains(body["error"].(string), "injected query panic") {
		t.Errorf("panic query: error %q does not carry the panic value", body["error"])
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/small/query", map[string]any{"algo": "bfs"}); status != http.StatusOK {
		t.Fatalf("server did not survive the contained panic: status %d", status)
	}

	// Metrics: per-algorithm requests/latency/timeout counters, the
	// panic counter, the idle in-flight gauge, per-graph memory.
	snap := metricsSnapshot(t, ts.URL)
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d, want 0 when idle", snap.InFlight)
	}
	bfs := snap.Algos["bfs"]
	if bfs.Requests < 4 {
		t.Errorf("bfs requests = %d, want >= 4", bfs.Requests)
	}
	if bfs.Panics != 1 {
		t.Errorf("bfs panics = %d, want 1", bfs.Panics)
	}
	if bfs.LatencyMsSum <= 0 {
		t.Error("bfs latency sum not accumulated")
	}
	if pr := snap.Algos["pagerank"]; pr.Timeouts < 1 {
		t.Errorf("pagerank timeouts = %d, want >= 1", pr.Timeouts)
	}
	if snap.GraphBytes <= 0 || len(snap.Graphs) != 2 {
		t.Errorf("graph memory missing from metrics: %+v", snap.Graphs)
	}
	if snap.Admitted < int64(len(queries)) {
		t.Errorf("admitted = %d, want >= %d", snap.Admitted, len(queries))
	}
	// The scheduler block is present and sane: every query ran parallel
	// primitives, so the scheduler saw activity (inline runs on a small
	// graph; dispatches when the pool engages), and the gauges are
	// non-negative.
	if snap.Scheduler.InlineRuns+snap.Scheduler.Dispatches == 0 {
		t.Error("scheduler block saw no activity after serving queries")
	}
	if snap.Scheduler.PoolWorkers < 0 || snap.Scheduler.Parks < 0 {
		t.Errorf("scheduler gauges negative: %+v", snap.Scheduler)
	}

	// Evict, then the graph is gone.
	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/small", nil); status != http.StatusOK {
		t.Fatalf("evict: status %d", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/small/query", map[string]any{"algo": "bfs"}); status != http.StatusNotFound {
		t.Fatalf("query after evict: status %d, want 404", status)
	}
	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/small", nil); status != http.StatusNotFound {
		t.Fatalf("double evict: status %d, want 404", status)
	}
}

// TestAdmissionControl proves the bounded semaphore: with one slot and no
// queue, a second query is rejected with 429 while the first executes.
// TestUndirectedAlgorithmsRejectDirectedGraph: a query for MIS, coloring
// or matching over a directed graph is the query's own fault, answered 400
// with the reason, not 200 with a wrong result.
func TestUndirectedAlgorithmsRejectDirectedGraph(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g, err := gen.RMATDirected(9, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Load(context.Background(), "dir", "test:dir", func() (graph.View, error) { return g, nil }); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mis", "coloring", "matching"} {
		status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/dir/query", map[string]any{"algo": name, "timeout_ms": 5000})
		if msg, _ := body["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, "undirected") {
			t.Errorf("%s: status %d, body %v; want 400 naming the undirected requirement", name, status, body)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueWait: 0})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 14}); status != http.StatusOK {
		t.Fatalf("load: status %d, body %v", status, body)
	}

	done := make(chan int, 1)
	go func() {
		status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "pagerank"})
		done <- status
	}()
	if !waitInFlight(t, ts.URL, 1) {
		t.Fatal("first query never became in-flight")
	}
	status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-admission query: status %d, want 429", status)
	}
	if first := <-done; first != http.StatusOK {
		t.Fatalf("admitted query: status %d", first)
	}
	if s.Metrics().Rejected.Value() < 1 {
		t.Error("rejected_429 counter not incremented")
	}
}

// TestDrainAndCancel proves the shutdown sequence: draining refuses new
// work but lets in-flight queries finish, and CancelInflight stops the
// stragglers cooperatively with 504 partial results.
func TestDrainAndCancel(t *testing.T) {
	t.Run("drain lets in-flight finish", func(t *testing.T) {
		s, ts := newTestServer(t, Config{MaxConcurrent: 2})
		if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 14}); status != http.StatusOK {
			t.Fatal("load failed")
		}
		done := make(chan int, 1)
		go func() {
			status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "pagerank"})
			done <- status
		}()
		if !waitInFlight(t, ts.URL, 1) {
			t.Fatal("query never became in-flight")
		}
		s.StartDrain()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
		}
		if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs"}); status != http.StatusServiceUnavailable {
			t.Errorf("new query while draining: status %d, want 503", status)
		}
		if status := <-done; status != http.StatusOK {
			t.Errorf("in-flight query during drain: status %d, want 200 (completed)", status)
		}
	})

	t.Run("cancel stops stragglers with partial results", func(t *testing.T) {
		s2, ts2 := newTestServer(t, Config{MaxConcurrent: 2})
		if status, _ := doJSON(t, "POST", ts2.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 14}); status != http.StatusOK {
			t.Fatal("load failed")
		}
		type reply struct {
			status int
			body   map[string]any
		}
		done := make(chan reply, 1)
		go func() {
			status, body := doJSON(t, "POST", ts2.URL+"/v1/graphs/g/query", map[string]any{"algo": "pagerank"})
			done <- reply{status, body}
		}()
		if !waitInFlight(t, ts2.URL, 1) {
			t.Fatal("query never became in-flight")
		}
		s2.StartDrain()
		s2.CancelInflight()
		r := <-done
		if r.status != http.StatusGatewayTimeout {
			t.Fatalf("cancelled query: status %d, body %v, want 504", r.status, r.body)
		}
		if r.body["partial"] != true {
			t.Errorf("cancelled query: no partial result: %v", r.body)
		}
	})
}
