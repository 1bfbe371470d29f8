package server

import (
	"net/http"
	"testing"
)

// TestCrossBackendCacheHit proves the backend field is stripped from the
// cache key end to end: every backend name runs the one engine, so a
// result computed for a request naming edgemap is served from cache to a
// request naming spmv, with one execution between them.
func TestCrossBackendCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4, CacheBytes: 1 << 20})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 11}); status != http.StatusOK {
		t.Fatalf("load: status %d, body %v", status, body)
	}

	status, first := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "pagerank", "backend": "edgemap"})
	if status != http.StatusOK {
		t.Fatalf("edgemap query: status %d, body %v", status, first)
	}
	if first["cached"] == true || first["backend"] != "edgemap" {
		t.Fatalf("edgemap query: cached=%v backend=%v", first["cached"], first["backend"])
	}
	status, second := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "pagerank", "backend": "spmv"})
	if status != http.StatusOK {
		t.Fatalf("spmv query: status %d, body %v", status, second)
	}
	if second["cached"] != true {
		t.Errorf("spmv request after identical edgemap query not served from cache: %v", second)
	}
	if second["summary"] != first["summary"] || second["backend"] != "edgemap" {
		t.Errorf("cached reply: summary %q backend %v, want %q edgemap", second["summary"], second["backend"], first["summary"])
	}
	if es := s.engine.Snapshot(); es.Executions != 1 {
		t.Errorf("runner executed %d times for cross-backend pair, want 1", es.Executions)
	}
	// /metrics counts the one execution; the cache hit is counted nowhere.
	snap := metricsSnapshot(t, ts.URL)
	if len(snap.Backends) != 1 || snap.Backends["edgemap"] != 1 {
		t.Errorf("metrics backends = %v, want edgemap:1", snap.Backends)
	}
}

// TestQueryBackendValidation checks the 400 paths: an unknown backend
// string and spmv named for an algorithm other than bfs, pagerank or
// triangles.
func TestQueryBackendValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 8}); status != http.StatusOK {
		t.Fatalf("load: status %d, body %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "bfs", "backend": "graphblas"}); status != http.StatusBadRequest {
		t.Errorf("unknown backend: status %d, body %v, want 400", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "components", "backend": "spmv"}); status != http.StatusBadRequest {
		t.Errorf("spmv for components: status %d, body %v, want 400", status, body)
	}
	// auto is accepted everywhere; components reports no backend detail,
	// so the response omits the field.
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "components", "backend": "auto"}); status != http.StatusOK || body["backend"] != nil {
		t.Errorf("auto components: status %d, backend %v, want 200 with no backend field", status, body["backend"])
	}
}
