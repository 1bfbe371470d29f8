package server

import (
	"net/http"
	"testing"
	"time"
)

// TestCrossBackendCacheHit proves the backend field is stripped from the
// cache key end to end: the spmv and edgemap backends are bit-identical,
// so a result computed under one backend must be served from cache to a
// request naming the other, and the cached reply reports the backend of
// the execution that filled the cache.
func TestCrossBackendCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4, CacheBytes: 1 << 20})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 11}); status != http.StatusOK {
		t.Fatalf("load: status %d, body %v", status, body)
	}

	// pagerank computed under edgemap, then requested under spmv.
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
	if second["summary"] != first["summary"] {
		t.Errorf("cached summary %q differs from computed %q", second["summary"], first["summary"])
	}
	// The cached reply reports the backend of the filling execution.
	if second["backend"] != "edgemap" {
		t.Errorf("cached reply backend = %v, want edgemap (the filling execution)", second["backend"])
	}
	if es := s.Engine().Snapshot(); es.Executions != 1 {
		t.Errorf("runner executed %d times for cross-backend pair, want 1", es.Executions)
	}

	// The reverse direction: triangles computed under spmv, hit under
	// edgemap and under auto.
	status, tri := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "triangles", "backend": "spmv"})
	if status != http.StatusOK || tri["cached"] == true || tri["backend"] != "spmv" {
		t.Fatalf("triangles spmv: status %d, cached=%v backend=%v", status, tri["cached"], tri["backend"])
	}
	for _, b := range []string{"edgemap", "auto"} {
		status, hit := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
			map[string]any{"algo": "triangles", "backend": b})
		if status != http.StatusOK || hit["cached"] != true || hit["backend"] != "spmv" {
			t.Errorf("triangles %s after spmv: status %d, cached=%v backend=%v (want cache hit reporting spmv)",
				b, status, hit["cached"], hit["backend"])
		}
	}

	// /metrics reports executed queries per backend: exactly one edgemap
	// (pagerank) and one spmv (triangles) execution; cache hits counted
	// nowhere.
	snap := metricsSnapshot(t, ts.URL)
	if snap.Backends["edgemap"] != 1 || snap.Backends["spmv"] != 1 {
		t.Errorf("metrics backends = %v, want edgemap:1 spmv:1", snap.Backends)
	}
}

// TestQueryBackendValidation checks the 400 paths: an unknown backend
// string and an spmv request for an algorithm with no spmv kernel.
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
		t.Errorf("spmv for non-kernel algo: status %d, body %v, want 400", status, body)
	}
	// auto for a non-kernel algorithm is fine — it resolves to edgemap
	// (non-kernel runners don't report a backend detail, so the response
	// omits the field).
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "components", "backend": "auto"}); status != http.StatusOK || body["backend"] != nil {
		t.Errorf("auto components: status %d, backend %v, want 200 with no backend field", status, body["backend"])
	}
}

// TestSpMVBypassesBatcher checks that a bfs query resolved to the spmv
// backend, below the sweep crossover, is the plain runner like any other:
// the collector neither queues it nor answers it from an edgeMap sweep.
func TestSpMVBypassesBatcher(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 4,
		BatchWindow:   50 * time.Millisecond,
		BatchMax:      8,
	})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 10}); status != http.StatusOK {
		t.Fatalf("load: status %d, body %v", status, body)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "bfs", "source": 0, "backend": "spmv"})
	if status != http.StatusOK {
		t.Fatalf("bfs spmv: status %d, body %v", status, body)
	}
	if body["batched"] == true {
		t.Errorf("spmv bfs went through the batch collector: %v", body)
	}
	if body["backend"] != "spmv" {
		t.Errorf("bfs backend = %v, want spmv", body["backend"])
	}
}
