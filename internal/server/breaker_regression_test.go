package server

// Regression tests for two ways the circuit-breaker feed could turn a
// healthy (algorithm, graph) combination into a permanent 503:
//
//   - a half-open probe whose reply is served from the result cache
//     must still release its probe slot (recorded as Aborted); skipping
//     the record would wedge the breaker half-open with no recovery
//     path short of a restart;
//   - expiries of client-chosen short timeouts must not count as
//     breaker failures, or a handful of cheap bounded partial-result
//     requests from one unauthenticated client would open the breaker
//     for every tenant.

import (
	"net/http"
	"testing"
	"time"

	"ligra/internal/faultinject"
)

func TestBreakerProbeServedFromCacheReleasesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent:    4,
		DefaultTimeout:   5 * time.Second,
		CacheBytes:       1 << 20,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 10}); st != http.StatusOK {
		t.Fatal("load failed")
	}

	// Prime the result cache with a successful (bfs, source=0) run.
	cachedQ := map[string]any{"algo": "bfs", "source": 0}
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", cachedQ); st != http.StatusOK {
		t.Fatal("cache-priming query failed")
	}

	// Open the (bfs, g) breaker: threshold consecutive injected panics,
	// on sources the cache has not seen.
	for i := 1; i <= 2; i++ {
		disarm := faultinject.PanicOnRound(1, "regression: injected panic")
		st, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs", "source": i})
		disarm()
		if st != http.StatusInternalServerError {
			t.Fatalf("panic query %d: status %d body %v, want 500", i, st, body)
		}
	}
	if st, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs", "source": 3}); st != http.StatusServiceUnavailable || body["error_type"] != "breaker_open" {
		t.Fatalf("breaker did not open: status %d body %v", st, body)
	}

	// After the cooldown the next request is the half-open probe — and
	// it hits the result cache.
	time.Sleep(80 * time.Millisecond)
	st, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", cachedQ)
	if st != http.StatusOK || body["cached"] != true {
		t.Fatalf("probe from cache: status %d body %v, want a 200 cache hit", st, body)
	}

	// The cached reply released the probe slot, so the next query is
	// admitted as a fresh probe, executes for real, and closes the
	// breaker.
	if st, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs", "source": 4}); st != http.StatusOK {
		t.Fatalf("query after cached probe: status %d body %v, want 200 (probe slot leaked?)", st, body)
	}
	if n := s.breakers.OpenCount(); n != 0 {
		t.Fatalf("open breakers = %d after a successful probe, want 0", n)
	}
}

func TestClientShortTimeoutsDoNotOpenBreaker(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent:    4,
		DefaultTimeout:   5 * time.Second,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // an opened breaker would stay visible
	})
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 13}); st != http.StatusOK {
		t.Fatal("load failed")
	}

	// Well past the threshold: bounded partial-result queries whose
	// 1ms budget cannot cover 100 PageRank iterations, each ending in
	// 504 with context.DeadlineExceeded.
	for i := 0; i < 5; i++ {
		st, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
			map[string]any{"algo": "pagerank", "timeout_ms": 1})
		if st != http.StatusGatewayTimeout {
			t.Fatalf("short-timeout query %d: status %d body %v, want 504", i, st, body)
		}
	}

	// The expiries were the client's choice, not the combination's
	// fault: the breaker stays closed and a normally-budgeted query
	// runs fine.
	if n := s.breakers.OpenCount(); n != 0 {
		t.Fatalf("open breakers = %d after client-chosen short timeouts, want 0", n)
	}
	if st, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "pagerank"}); st != http.StatusOK {
		t.Fatalf("full-budget query after short-timeout storm: status %d body %v, want 200", st, body)
	}
}
