package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
	"ligra/internal/server/batch"
	"ligra/internal/server/engine"
	"ligra/internal/viewtest"
)

// saveTestGraph writes a deterministic RMAT graph to disk so two servers
// can load byte-identical copies.
func saveTestGraph(t *testing.T) string {
	t.Helper()
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rmat10.bin")
	if err := graph.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	return path
}

// holdBatchLoad parks SweepCrossover-1 plain runs of graph name's default
// shape inside the collector, so the next batchable query over HTTP
// arrives at the measured load where the collector queues instead of
// running. The returned release (also run at cleanup) lets them finish.
func holdBatchLoad(t *testing.T, s *Server, name string) (release func()) {
	t.Helper()
	pin, _, err := s.Registry().Acquire(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	version := pin.Version()
	pin.Release()
	gate := make(chan struct{})
	var entered, done sync.WaitGroup
	for i := 0; i < batch.SweepCrossover-1; i++ {
		entered.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			key := engine.Key{Graph: name, Generation: version, Algo: "bfs", Params: fmt.Sprintf("ballast-%d", i)}
			s.Batcher().Execute(context.Background(), batch.Request{Key: key, Algo: "bfs"},
				func(context.Context, int) (engine.Value, error) {
					entered.Done()
					<-gate
					return engine.Value{}, errors.New("ballast")
				}, nil)
		}(i)
	}
	entered.Wait()
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			done.Wait()
		})
	}
	t.Cleanup(release)
	return release
}

type httpReply struct {
	status int
	body   map[string]any
}

// fireAll posts the queries concurrently and returns the replies in order.
func fireAll(t *testing.T, url string, queries []map[string]any) []httpReply {
	t.Helper()
	replies := make([]httpReply, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q map[string]any) {
			defer wg.Done()
			replies[i].status, replies[i].body = doJSON(t, "POST", url, q)
		}(i, q)
	}
	wg.Wait()
	return replies
}

// answerBytes renders a reply without the fields that describe how it was
// executed rather than what it answers.
func answerBytes(t *testing.T, body map[string]any) string {
	t.Helper()
	m := make(map[string]any, len(body))
	for k, v := range body {
		switch k {
		case "elapsed_ms", "procs", "batched", "batch_size":
		default:
			m[k] = v
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBatchedQueriesOverHTTP proves the wire contract of the batch
// collector over every graph representation (heap / compressed / mmap /
// delta snapshot): at the sweep crossover concurrent bfs / reach /
// landmarks queries share ONE sweep (batched:true, one batch_size), below
// it the same queries run plain (no batched field), and the swept reply,
// the plain reply, a batching-disabled server's reply and the internal/seq
// oracle all agree — byte for byte where both are replies.
func TestBatchedQueriesOverHTTP(t *testing.T) {
	g, err := gen.RMAT(10, 4, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshots serve dirty rows from their overlays, and are still g.
	views := viewtest.Matrix(t, g, viewtest.NetZero(g)...)

	s, batched := newTestServer(t, Config{
		MaxConcurrent: 64, QueueWait: 2 * time.Second,
		BatchWindow: 500 * time.Millisecond,
	})
	sOff, off := newTestServer(t, Config{
		MaxConcurrent: 8,
		BatchWindow:   -1, // batching off: every query runs plain
	})
	for name, v := range views {
		for _, srv := range []*Server{s, sOff} {
			if _, err := srv.Registry().Load(context.Background(), name, "test:"+name, func() (graph.View, error) { return v, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Sources with an unreachable vertex to aim at; the oracle picks both.
	n := uint32(g.NumVertices())
	const source = 1
	levels := seq.BFSLevels(g, source)
	unreachable := -1
	for v, l := range levels {
		if l < 0 {
			unreachable = v
			break
		}
	}
	if unreachable < 0 || levels[700] < 0 {
		t.Fatal("test graph: want vertex 700 reachable and some vertex unreachable from the source")
	}
	queries := []map[string]any{
		{"algo": "bfs", "source": source},
		{"algo": "reach", "source": source, "target": source}, // source == target
		{"algo": "reach", "source": source, "target": 700},
		{"algo": "reach", "source": source, "target": unreachable},
		{"algo": "landmarks", "source": source, "landmarks": []int{0, 9, 9, unreachable, 0}}, // duplicates
		{"algo": "landmarks", "source": source, "landmarks": []int{source}},
	}
	for i := uint32(0); len(queries) < batch.SweepCrossover+2; i++ {
		queries = append(queries, map[string]any{"algo": "bfs", "source": (i*131 + 2) % n})
	}

	for name := range views {
		url := batched.URL + "/v1/graphs/" + name + "/query"
		release := holdBatchLoad(t, s, name)
		swept := fireAll(t, url, queries)
		release()
		for i, q := range queries {
			if swept[i].status != http.StatusOK {
				t.Fatalf("%s: swept query %v: status %d, body %v", name, q, swept[i].status, swept[i].body)
			}
			if swept[i].body["batched"] != true || swept[i].body["batch_size"] != float64(len(queries)) {
				t.Errorf("%s: query %v not answered by the one sweep: %v", name, q, swept[i].body)
			}
			// The load is gone: the same query now runs plain.
			status, plain := doJSON(t, "POST", url, q)
			if status != http.StatusOK || plain["batched"] != nil || plain["batch_size"] != nil {
				t.Fatalf("%s: plain query %v: status %d, body %v", name, q, status, plain)
			}
			_, base := doJSON(t, "POST", off.URL+"/v1/graphs/"+name+"/query", q)
			want := answerBytes(t, swept[i].body)
			if got := answerBytes(t, plain); got != want {
				t.Errorf("%s: query %v:\n swept %s\n plain %s", name, q, want, got)
			}
			if got := answerBytes(t, base); got != want {
				t.Errorf("%s: query %v:\n swept %s\n batching off %s", name, q, want, got)
			}
		}
		// The oracle, on the queries whose answers it spells out.
		details := func(i int) map[string]any { return swept[i].body["details"].(map[string]any) }
		visited, depth := 0, int32(0)
		for _, l := range levels {
			if l >= 0 {
				visited++
			}
			depth = max(depth, l)
		}
		if d := details(0); d["visited"] != float64(visited) || d["rounds"] != float64(depth) {
			t.Errorf("%s: bfs %v, oracle visited %d rounds %d", name, d, visited, depth)
		}
		for i, want := range map[int]int32{1: 0, 2: levels[700], 3: -1} {
			if d := details(i); d["distance"] != float64(want) || d["reachable"] != (want >= 0) {
				t.Errorf("%s: reach %v, oracle distance %d", name, d, want)
			}
		}
		wantDists := []any{float64(levels[0]), float64(levels[9]), float64(levels[9]), float64(-1), float64(levels[0])}
		if d := details(4); !reflect.DeepEqual(d["distances"], wantDists) {
			t.Errorf("%s: landmarks %v, oracle %v", name, d, wantDists)
		}
	}

	// One sweep per view, fired by its window; the plain re-runs and the
	// ballast were counted as plain arrivals; the batching-off server
	// counted nothing.
	snap := metricsSnapshot(t, batched.URL)
	views64, queries64 := int64(len(views)), int64(len(queries))
	if b := snap.Batch; b.BatchesRun != views64 || b.QueriesBatched != views64*queries64 ||
		b.MeanBatchSize != float64(queries64) || b.WindowWaits != views64 ||
		b.PlainRuns < views64*queries64 || b.ShortWindows != 0 || b.FanoutErrors != 0 {
		t.Errorf("batch metrics %+v", b)
	}
	if b := metricsSnapshot(t, off.URL).Batch; b != (batch.Stats{}) {
		t.Errorf("batching-disabled server counted %+v", b)
	}
}

// TestFollowerSurvivesLeaderTimeoutOverHTTP: two identical bfs queries
// coalesce in the engine; the leader's 1ms timeout expires mid-run and it
// gets its 504 with the partial result, while the follower — whose own
// deadline is far away — must be answered in full instead of inheriting
// the leader's expiry.
func TestFollowerSurvivesLeaderTimeoutOverHTTP(t *testing.T) {
	path := saveTestGraph(t)
	s, ts := newTestServer(t, Config{MaxConcurrent: 8})
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"path": path}); status != http.StatusOK {
		t.Fatal("load failed")
	}
	// The leader's first chunk sleeps through its deadline.
	disarm := faultinject.SlowChunk(1, 300*time.Millisecond)
	defer disarm()
	url := ts.URL + "/v1/graphs/g/query"
	leader := make(chan httpReply, 1)
	go func() {
		status, body := doJSON(t, "POST", url, map[string]any{"algo": "bfs", "source": 3, "timeout_ms": 1})
		leader <- httpReply{status, body}
	}()
	if !waitInFlight(t, ts.URL, 1) {
		t.Fatal("leader never became in-flight")
	}
	status, body := doJSON(t, "POST", url, map[string]any{"algo": "bfs", "source": 3})
	if status != http.StatusOK || body["partial"] == true {
		t.Fatalf("follower inherited the leader's expiry: status %d, body %v", status, body)
	}
	if _, want := doJSON(t, "POST", url, map[string]any{"algo": "bfs", "source": 3}); body["summary"] != want["summary"] {
		t.Errorf("follower summary %q, a fresh run says %q", body["summary"], want["summary"])
	}
	l := <-leader
	if l.status != http.StatusGatewayTimeout || l.body["partial"] != true || l.body["summary"] == nil ||
		!strings.Contains(l.body["error"].(string), "interrupted after round") {
		t.Errorf("leader: status %d, body %v, want 504 with the partial result", l.status, l.body)
	}
	if es := s.Engine().Snapshot(); es.Coalesced < 1 {
		t.Errorf("the two queries never coalesced (coalesced = %d); the test proved nothing", es.Coalesced)
	}
}

// TestBatchValidationOverHTTP proves out-of-range reach targets and bad
// landmark lists are rejected with 400 before the sweep — never silently
// read as "unreachable" from a visit word that has no bit for them.
func TestBatchValidationOverHTTP(t *testing.T) {
	path := saveTestGraph(t)
	_, ts := newTestServer(t, Config{MaxConcurrent: 8, QueueWait: time.Second})
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"path": path}); status != http.StatusOK {
		t.Fatal("load failed")
	}
	bad := []map[string]any{
		{"algo": "reach", "source": 0, "target": 1 << 30},
		{"algo": "landmarks", "source": 0},
		{"algo": "landmarks", "source": 0, "landmarks": []int{}},
		{"algo": "landmarks", "source": 0, "landmarks": []int{1 << 30}},
		{"algo": "landmarks", "source": 0, "landmarks": make([]int, 65)},
	}
	for _, q := range bad {
		if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", q); status != http.StatusBadRequest {
			t.Errorf("query %v: status %d, body %v, want 400", q, status, body)
		}
	}
	// The in-range versions succeed, so the rejections above are the
	// validator's doing, not some broader failure.
	good := []map[string]any{
		{"algo": "reach", "source": 0, "target": 5},
		{"algo": "landmarks", "source": 0, "landmarks": []int{1, 2, 3}},
	}
	for _, q := range good {
		if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", q); status != http.StatusOK {
			t.Errorf("query %v: status %d, body %v, want 200", q, status, body)
		}
	}
}

// TestBatchedPanicFanout is the chaos case: a panic inside the shared
// sweep reaches every caller in the batch as a contained 500 — no caller
// hangs, no caller gets a sibling's result — and the server keeps
// serving afterwards.
func TestBatchedPanicFanout(t *testing.T) {
	path := saveTestGraph(t)
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 32, QueueWait: 2 * time.Second,
		BatchWindow:      500 * time.Millisecond,
		BreakerThreshold: 100, // stay closed through the storm
	})
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"path": path}); status != http.StatusOK {
		t.Fatal("load failed")
	}

	holdBatchLoad(t, s, "g")
	queries := make([]map[string]any, batch.SweepCrossover)
	for i := range queries {
		queries[i] = map[string]any{"algo": "bfs", "source": i + 1}
	}
	url := ts.URL + "/v1/graphs/g/query"
	disarm := faultinject.PanicOnChunk(1, "injected sweep panic")
	replies := fireAll(t, url, queries)
	disarm()
	// The hook fires once, on the first dispatched chunk — the sweep's:
	// it must fan the failure out to its whole batch.
	for _, r := range replies {
		if r.status != http.StatusInternalServerError || !strings.Contains(r.body["error"].(string), "injected sweep panic") {
			t.Errorf("batched caller during panic: status %d, body %v", r.status, r.body)
		}
	}

	// Containment: the collector and server survive, and the same
	// queries now succeed (batched again).
	for _, r := range fireAll(t, url, queries) {
		if r.status != http.StatusOK || r.body["batched"] != true {
			t.Fatalf("server did not survive the batched panic: status %d, body %v", r.status, r.body)
		}
	}
	if snap := metricsSnapshot(t, ts.URL); snap.Batch.FanoutErrors != int64(len(queries)) {
		t.Errorf("fanout_errors = %d, want %d", snap.Batch.FanoutErrors, len(queries))
	}
}
