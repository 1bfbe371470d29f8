package server

// The chaos suite: hammer an httptest server with mixed traffic while
// injecting each fault class the resilience layer exists for —
// worker/round panics, transient graph-load IO failures, stuck-worker
// slow chunks, and raw overload — and assert the server's survival
// contract:
//
//   - /healthz (liveness) answers for the entire run, never hanging;
//   - failures surface as typed 429/500/503/504 responses with JSON
//     bodies, never as connection drops or empty bodies;
//   - circuit breakers open under repeated faults (degraded health,
//     fail-fast 503) and close within one probe interval after the
//     faults stop;
//   - the watchdog records zero trips (cancellation never failed);
//   - no goroutines leak once the dust settles.
//
// CI runs this under -race with GOMAXPROCS=4 in the chaos-smoke job; it
// is skipped in -short mode to keep the quick race line fast.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/server/resilience"
)

// chaosConfig is tuned for fast, deterministic fault transitions: tiny
// breaker cooldown so recovery is observable within the test, a
// generous watchdog grace so legitimate slow queries never trip it.
func chaosConfig() Config {
	return Config{
		MaxConcurrent:    4,
		QueueWait:        50 * time.Millisecond,
		DefaultTimeout:   5 * time.Second,
		ShedTarget:       500 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		WatchdogGrace:    10 * time.Second,
		RetryBudget:      100,
		// The overload phase floods as a distinct X-Tenant; in the test
		// the "gateway" is the suite itself, so the header is trusted.
		TrustTenantHeader: true,
	}
}

// queryStatus posts one query and returns (status, body); unlike doJSON
// it never fails the test on a bad body — the chaos suite records
// malformed replies as violations instead.
func queryStatus(t *testing.T, url string, q map[string]any) (int, map[string]any, error) {
	t.Helper()
	b, _ := json.Marshal(q)
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("status %d with undecodable body: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, body, nil
}

// healthzProber polls GET /healthz?live=1 continuously until stop is
// closed, recording any failure to answer. A bounded client timeout is
// the "never hangs" assertion.
func healthzProber(t *testing.T, baseURL string, stop <-chan struct{}, wg *sync.WaitGroup) *atomic.Int64 {
	t.Helper()
	var polls atomic.Int64
	client := &http.Client{Timeout: 2 * time.Second}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(baseURL + "/healthz?live=1")
			if err != nil {
				t.Errorf("healthz stopped answering during chaos: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("healthz status %d, want 200 or 503", resp.StatusCode)
			}
			resp.Body.Close()
			polls.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return &polls
}

// TestChaos is the suite's main scenario. Fault classes are injected in
// sequence (the faultinject hooks are process-global and refuse
// overlapping arming) while background traffic and the health prober
// run throughout.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs in the chaos-smoke CI job (and plain go test)")
	}
	goroutinesBefore := runtime.NumGoroutine()

	// A file-backed graph (so FailLoad's IO hook is reachable) and a
	// generated one for background traffic.
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chaos.bin")
	if err := graph.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, chaosConfig())
	if st, b := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"path": path}); st != http.StatusOK {
		t.Fatalf("load g: status %d body %v", st, b)
	}
	if st, b := doJSON(t, "POST", ts.URL+"/v1/graphs/bg", map[string]any{"gen": "rmat", "scale": 11}); st != http.StatusOK {
		t.Fatalf("load bg: status %d body %v", st, b)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	polls := healthzProber(t, ts.URL, stop, &wg)
	allowed := map[int]bool{200: true, 429: true, 500: true, 503: true, 504: true}

	// ---- Phase 1: panic storm on (bfs, g) until its breaker opens. ----
	// This phase runs before the background traffic starts: the
	// faultinject round hook is process-global and fires on the first
	// EdgeMap anywhere, so with only the storm running each armed panic
	// deterministically lands in the storm's own query — three
	// consecutive 500s open the breaker, never a race against whichever
	// background worker called OnRound first.
	sawBreakerOpen := false
	for i := 0; i < 10 && !sawBreakerOpen; i++ {
		disarm := faultinject.PanicOnRound(1, "chaos: injected round panic")
		status, body, err := queryStatus(t, ts.URL+"/v1/graphs/g/query",
			map[string]any{"algo": "bfs", "source": i % g.NumVertices(), "timeout_ms": 2000})
		disarm()
		if err != nil {
			t.Fatalf("panic-phase query: %v", err)
		}
		switch status {
		case http.StatusInternalServerError:
			if !strings.Contains(fmt.Sprint(body["error"]), "panicked") {
				t.Errorf("500 body does not describe the contained panic: %v", body)
			}
		case http.StatusServiceUnavailable:
			if body["error_type"] != "breaker_open" {
				t.Fatalf("503 without breaker_open typed body: %v", body)
			}
			sawBreakerOpen = true
		default:
			t.Errorf("panic-phase status %d: %v", status, body)
		}
	}
	if !sawBreakerOpen {
		t.Fatal("breaker for (bfs, g) never opened under the panic storm")
	}
	// While the breaker is open: readiness reports degraded, the open
	// breaker is listed, and the fail-fast 503 carries Retry-After.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string                     `json:"status"`
		Breakers []resilience.BreakerStatus `json:"breakers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "degraded" {
		t.Errorf("healthz status %q with an open breaker, want degraded", health.Status)
	}
	if len(health.Breakers) == 0 {
		t.Error("healthz lists no breakers while one is open")
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/graphs/g/query",
		strings.NewReader(`{"algo":"bfs","source":1}`))
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode == http.StatusServiceUnavailable && r2.Header.Get("Retry-After") == "" {
		t.Error("breaker-open 503 without a Retry-After header")
	}
	r2.Body.Close()
	snap := metricsSnapshot(t, ts.URL)
	if snap.Resilience.BreakerOpen < 1 {
		t.Errorf("metrics breaker_open = %d, want >= 1", snap.Resilience.BreakerOpen)
	}

	// Background traffic for the remaining phases: mixed algorithms on
	// the "bg" graph (the fault phases own "g"), randomized sources to
	// defeat the result cache. Any status in the survival contract is
	// fine; a transport error or an undecodable body is a violation.
	var trafficN atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			algos := []string{"pagerank", "components", "kcore"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := map[string]any{
					"algo":       algos[rng.IntN(len(algos))],
					"timeout_ms": 2000,
				}
				if rng.IntN(2) == 0 {
					q["source"] = rng.IntN(g.NumVertices())
				}
				status, _, err := queryStatus(t, ts.URL+"/v1/graphs/bg/query", q)
				if err != nil {
					t.Errorf("background query violated the survival contract: %v", err)
					return
				}
				if !allowed[status] {
					t.Errorf("background query status %d, want one of 200/429/500/503/504", status)
				}
				trafficN.Add(1)
			}
		}(uint64(w + 1))
	}

	// ---- Phase 2: transient load failures absorbed by retry. ----
	if st, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/g", nil); st != http.StatusOK {
		t.Fatal("evict for reload failed")
	}
	disarmLoad := faultinject.FailLoad(2, fmt.Errorf("chaos: io blip: %w", io.ErrUnexpectedEOF))
	st, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"path": path})
	disarmLoad()
	if st != http.StatusOK {
		t.Fatalf("reload under transient IO blips: status %d body %v — retries did not absorb the fault", st, body)
	}
	snap = metricsSnapshot(t, ts.URL)
	if snap.Resilience.RetryBudgetSpent < 2 {
		t.Errorf("retry_budget_spent = %d, want >= 2", snap.Resilience.RetryBudgetSpent)
	}

	// ---- Phase 3: a stuck-worker slow chunk, well inside grace. ----
	disarmSlow := faultinject.SlowChunk(3, 150*time.Millisecond)
	status, _, err := queryStatus(t, ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "components", "timeout_ms": 3000})
	disarmSlow()
	if err != nil || !allowed[status] {
		t.Errorf("slow-chunk query: status %d err %v", status, err)
	}

	// ---- Phase 4: overload — a tenant floods well past capacity. ----
	// The flood targets a graph big enough that one PageRank run takes
	// several times the 50ms queue window (scale 15 is ~130ms on four
	// procs), and every flood query is identical so the admitted ones
	// coalesce into that single execution and hold their slots for its
	// full duration: the queued remainder must shed. A flood of small
	// distinct queries would drain through the queue faster than the
	// window and shed nothing.
	if st, b := doJSON(t, "POST", ts.URL+"/v1/graphs/hot", map[string]any{"gen": "rmat", "scale": 15}); st != http.StatusOK {
		t.Fatalf("load hot: status %d body %v", st, b)
	}
	var flood sync.WaitGroup
	var shedWithHeader, floodOK atomic.Int64
	for i := 0; i < 24; i++ {
		flood.Add(1)
		go func(i int) {
			defer flood.Done()
			b, _ := json.Marshal(map[string]any{"algo": "pagerank", "source": 0, "timeout_ms": 5000})
			req, _ := http.NewRequest("POST", ts.URL+"/v1/graphs/hot/query", strings.NewReader(string(b)))
			req.Header.Set("X-Tenant", "flood")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("flood query: %v", err)
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Errorf("flood query: status %d with undecodable body", resp.StatusCode)
				return
			}
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") != "" {
					shedWithHeader.Add(1)
				} else {
					t.Error("429 without a Retry-After header")
				}
			case http.StatusOK, http.StatusGatewayTimeout, http.StatusInternalServerError, http.StatusServiceUnavailable:
				floodOK.Add(1)
			default:
				t.Errorf("flood query status %d: %v", resp.StatusCode, body)
			}
		}(i)
	}
	flood.Wait()
	if shedWithHeader.Load() == 0 {
		t.Error("a 24-deep flood over capacity 4 shed nothing")
	}

	// ---- Faults over: the server must return to full health. ----
	close(stop)
	wg.Wait()
	if polls.Load() == 0 {
		t.Fatal("health prober never completed a poll")
	}
	if trafficN.Load() == 0 {
		t.Fatal("background traffic never completed a query")
	}

	// Every breaker closes after one cooldown + successful probe. Drive
	// probes for any combination the chaos may have tripped.
	deadline := time.Now().Add(10 * time.Second)
	healthy := false
	for !healthy && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond) // let a cooldown elapse
		for _, gr := range []string{"g", "bg"} {
			for _, al := range []string{"bfs", "pagerank", "components", "kcore"} {
				_, _, _ = queryStatus(t, ts.URL+"/v1/graphs/"+gr+"/query",
					map[string]any{"algo": al, "timeout_ms": 3000})
			}
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		healthy = h.Status == "ok"
	}
	if !healthy {
		t.Errorf("server did not return to full health after faults cleared: %+v",
			metricsSnapshot(t, ts.URL).Resilience)
	}

	// The invariant the watchdog exists for: cancellation stopped every
	// query in time, under every fault class.
	snap = metricsSnapshot(t, ts.URL)
	if snap.Resilience.WatchdogTrips != 0 {
		t.Errorf("watchdog_trips = %d, want 0 — the cancellation layer failed under chaos", snap.Resilience.WatchdogTrips)
	}
	if snap.Resilience.Shed == 0 {
		t.Error("resilience.shed = 0 after the overload phase")
	}

	// No goroutine leaks once in-flight work settles. The persistent
	// worker pool is process-global and excluded via its own gauge.
	waitForGoroutines(t, goroutinesBefore)
}

// waitForGoroutines polls until the process goroutine count settles
// back to roughly the given baseline (plus the persistent scheduler
// pool and a small slack for runtime helpers), dumping stacks on
// timeout.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	allow := baseline + int(parallel.SchedulerSnapshot().PoolWorkers) + 8
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= allow {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			sz := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d alive, want <= %d\n%s", n, allow, buf[:sz])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestWatchdogTripOnStuckQuery proves the watchdog end to end: a worker
// wedged in non-cooperative code (SlowChunk sleeps through every
// cancellation check) runs past deadline+grace, the watchdog trips and
// counts it, and the query still completes with a 504 partial result
// once the worker unsticks. This is the one test where a trip is the
// *expected* outcome; everywhere else a trip is a bug.
func TestWatchdogTripOnStuckQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos-adjacent test runs in the chaos-smoke CI job")
	}
	cfg := chaosConfig()
	cfg.WatchdogGrace = 50 * time.Millisecond
	s, ts := newTestServer(t, cfg)
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 10}); st != http.StatusOK {
		t.Fatal("load failed")
	}
	// Warm up so the stuck chunk lands inside the measured query, not a
	// load or a first-use pool spawn.
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs", "source": 0}); st != http.StatusOK {
		t.Fatal("warm-up query failed")
	}

	disarm := faultinject.SlowChunk(1, 400*time.Millisecond)
	defer disarm()
	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
		map[string]any{"algo": "pagerank", "source": 1, "timeout_ms": 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stuck query: status %d body %v, want 504 once the worker unsticks", status, body)
	}
	if got := s.watchdog.Trips(); got != 1 {
		t.Fatalf("watchdog trips = %d, want exactly 1", got)
	}
	// The trip is surfaced on /healthz and /metrics.
	snap := metricsSnapshot(t, ts.URL)
	if snap.Resilience.WatchdogTrips != 1 {
		t.Errorf("metrics watchdog_trips = %d, want 1", snap.Resilience.WatchdogTrips)
	}
}

// TestDrainAdmittedQueryRace covers the SIGTERM race: queries admitted
// just before (or racing) StartDrain must complete with a real JSON
// body — 200, or 504 with a partial result — and post-drain arrivals
// get a clean 503; nobody is dropped with an empty body.
func TestDrainAdmittedQueryRace(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4, QueueWait: 100 * time.Millisecond})
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 13}); st != http.StatusOK {
		t.Fatal("load failed")
	}

	type reply struct {
		status int
		body   map[string]any
		err    error
	}
	const n = 16
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := queryStatus(t, ts.URL+"/v1/graphs/g/query",
				map[string]any{"algo": "pagerank", "source": i, "timeout_ms": 5000})
			replies <- reply{status, body, err}
		}(i)
	}
	// Drain while the volley is (racing to be) in flight, then cancel
	// the stragglers like the SIGTERM path does.
	if !waitInFlight(t, ts.URL, 1) {
		t.Log("no query observed in flight before drain (all raced ahead); still validating bodies")
	}
	s.StartDrain()
	time.Sleep(20 * time.Millisecond)
	s.CancelInflight()
	wg.Wait()
	close(replies)

	for r := range replies {
		if r.err != nil {
			t.Fatalf("query dropped during drain: %v", r.err)
		}
		switch r.status {
		case http.StatusOK:
			if r.body["summary"] == nil {
				t.Errorf("200 with no summary during drain: %v", r.body)
			}
		case http.StatusGatewayTimeout:
			if r.body["partial"] != true {
				t.Errorf("504 without a partial result during drain: %v", r.body)
			}
		case http.StatusServiceUnavailable:
			if fmt.Sprint(r.body["error"]) == "" && r.body["error_type"] == nil {
				t.Errorf("503 with an empty error body: %v", r.body)
			}
		case http.StatusTooManyRequests:
			// Admission pressure during the volley; a typed body is
			// still required.
			if r.body["error"] == nil {
				t.Errorf("429 with an empty body: %v", r.body)
			}
		default:
			t.Errorf("drain-race status %d: %v", r.status, r.body)
		}
	}
	// Post-drain arrivals: clean 503 with Retry-After.
	resp, err := http.Post(ts.URL+"/v1/graphs/g/query", "application/json",
		strings.NewReader(`{"algo":"bfs"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without a Retry-After header")
	}
}
