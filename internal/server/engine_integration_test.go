package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"ligra/internal/gen"
	"ligra/internal/graph"
)

// TestQueryResultCaching is the end-to-end caching acceptance test: a
// repeated identical query is served from the result cache without
// re-invoking the runner (the engine's execution counter stands in for a
// runner-invocation count), and a query with different parameters is not.
func TestQueryResultCaching(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4, CacheBytes: 1 << 20})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 11}); status != http.StatusOK {
		t.Fatalf("load: status %d, body %v", status, body)
	}

	q := map[string]any{"algo": "components"}
	status, first := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", q)
	if status != http.StatusOK {
		t.Fatalf("first query: status %d, body %v", status, first)
	}
	if first["cached"] == true {
		t.Fatal("first query claims to be cached")
	}
	status, second := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", q)
	if status != http.StatusOK {
		t.Fatalf("second query: status %d, body %v", status, second)
	}
	if second["cached"] != true {
		t.Errorf("repeated query not served from cache: %v", second)
	}
	if second["summary"] != first["summary"] {
		t.Errorf("cached summary %q differs from computed %q", second["summary"], first["summary"])
	}
	if es := s.engine.Snapshot(); es.Executions != 1 {
		t.Errorf("runner executed %d times for 2 identical queries, want 1", es.Executions)
	}

	// Different parameters -> different key -> a fresh execution.
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "components", "mode": "sparse"}); status != http.StatusOK || body["cached"] == true {
		t.Errorf("distinct-params query: status %d, cached %v", status, body["cached"])
	}
	if es := s.engine.Snapshot(); es.Executions != 2 {
		t.Errorf("executions = %d after a distinct-params query, want 2", es.Executions)
	}

	// /metrics exposes the cache counters.
	snap := metricsSnapshot(t, ts.URL)
	if snap.Query.Cache.Hits != 1 {
		t.Errorf("metrics cache hits = %d, want 1", snap.Query.Cache.Hits)
	}
	if snap.Query.Cache.Entries < 2 {
		t.Errorf("metrics cache entries = %d, want >= 2", snap.Query.Cache.Entries)
	}
	if snap.Query.Governor.TotalSlots < 1 {
		t.Errorf("governor slots missing from metrics: %+v", snap.Query.Governor)
	}
}

// TestQueryCoalescingOverHTTP verifies single-flight end to end: a query
// identical to one already executing attaches to its flight instead of
// starting a second execution.
func TestQueryCoalescingOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4}) // cache off
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 14}); status != http.StatusOK {
		t.Fatal("load failed")
	}
	q := map[string]any{"algo": "pagerank"}
	type reply struct {
		status int
		body   map[string]any
	}
	done := make(chan reply, 1)
	go func() {
		status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", q)
		done <- reply{status, body}
	}()
	if !waitInFlight(t, ts.URL, 1) {
		t.Fatal("leader query never became in-flight")
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", q)
	if status != http.StatusOK {
		t.Fatalf("follower query: status %d, body %v", status, body)
	}
	if body["coalesced"] != true {
		t.Errorf("identical concurrent query did not coalesce: %v", body)
	}
	if r := <-done; r.status != http.StatusOK {
		t.Fatalf("leader query: status %d, body %v", r.status, r.body)
	}
	es := s.engine.Snapshot()
	if es.Executions != 1 {
		t.Errorf("2 identical concurrent queries ran %d executions, want 1", es.Executions)
	}
	if es.Coalesced < 1 {
		t.Errorf("coalesced counter = %d, want >= 1", es.Coalesced)
	}
}

// TestCacheInvalidationOnEvictAndReload is the generation-bump regression
// test: after a graph is evicted and its name reloaded with a different
// graph, queries must be answered from the new graph, never from results
// cached against the old residency.
func TestCacheInvalidationOnEvictAndReload(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4, CacheBytes: 1 << 20})

	load := func(spec map[string]any, wantGen float64) {
		t.Helper()
		status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", spec)
		if status != http.StatusOK {
			t.Fatalf("load %v: status %d, body %v", spec, status, body)
		}
		if body["generation"] != wantGen {
			t.Fatalf("load %v: generation = %v, want %v", spec, body["generation"], wantGen)
		}
	}
	query := func() map[string]any {
		t.Helper()
		status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "components"})
		if status != http.StatusOK {
			t.Fatalf("query: status %d, body %v", status, body)
		}
		return body
	}

	load(map[string]any{"gen": "rmat", "scale": 11}, 1)
	first := query()
	if cached := query(); cached["cached"] != true {
		t.Fatalf("repeat query on generation 1 not cached: %v", cached)
	}

	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/g", nil); status != http.StatusOK {
		t.Fatal("evict failed")
	}
	// Same name, different graph: the generation must advance.
	load(map[string]any{"gen": "grid3d", "scale": 11}, 2)

	fresh := query()
	if fresh["cached"] == true {
		t.Fatalf("query after evict+reload served from the old graph's cache: %v", fresh)
	}
	if fresh["summary"] == first["summary"] {
		t.Errorf("reloaded graph produced the old graph's result: %q", fresh["summary"])
	}
}

// TestRegistryGenerationSurvivesEviction pins the registry-level contract
// the cache key depends on: generations per name are monotonic across
// evict/reload cycles and independent between names.
func TestRegistryGenerationSurvivesEviction(t *testing.T) {
	r := NewRegistry()
	build := func() (graph.View, error) { return gen.RMAT(8, 16, gen.PBBSRMAT, 1) }
	for want := uint64(1); want <= 3; want++ {
		info, err := r.Load(context.Background(), "g", fmt.Sprintf("src-%d", want), build)
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation != want {
			t.Fatalf("load %d: generation = %d, want %d", want, info.Generation, want)
		}
		if _, got, err := r.Get(context.Background(), "g"); err != nil || got.Generation != want {
			t.Fatalf("Get after load %d: generation = %d (err %v), want %d", want, got.Generation, err, want)
		}
		if !r.Evict("g") {
			t.Fatal("evict failed")
		}
	}
	// An unrelated name starts at generation 1.
	info, err := r.Load(context.Background(), "other", "src", build)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 {
		t.Errorf("first load of a fresh name: generation = %d, want 1", info.Generation)
	}
}

// TestPerQueryProcsReachTheRun verifies the governor cap travels from
// Config.MaxQueryProcs to the query response's procs field.
func TestPerQueryProcsReachTheRun(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4, MaxQueryProcs: 1})
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 10}); status != http.StatusOK {
		t.Fatal("load failed")
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs"})
	if status != http.StatusOK {
		t.Fatalf("query: status %d, body %v", status, body)
	}
	if body["procs"] != float64(1) {
		t.Errorf("query ran with procs = %v, want 1 (MaxQueryProcs)", body["procs"])
	}
}
