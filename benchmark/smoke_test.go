package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ligra/internal/gen"
	"ligra/internal/server"
)

// TestSmoke runs every workload, both passes, on tiny inputs with 1 s
// windows. It measures nothing; it checks that the benchmark and
// BENCHMARK.json agree in both directions, that every answer checks out,
// that the trace files are well formed, and that no server is left behind.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadFuncs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(spec.Workloads), len(workloadFuncs))
	}
	bins, err := buildBinaries(root, spec.workloadNames())
	if err != nil {
		t.Fatal(err)
	}
	defer stopAllChildren()

	produced := map[string]bool{} // per-layer metrics some workload measured
	for _, name := range spec.workloadNames() {
		run, ok := workloadFuncs[name]
		if !ok {
			t.Fatalf("workload %q is in BENCHMARK.json but not implemented", name)
		}
		for _, traced := range []bool{false, true} {
			rc := runConfig{workload: name, root: root, seed: 7, seconds: 1, traced: traced, sz: smokeSizes, bins: bins}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			oc, err := run(ctx, rc)
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if oc.attempted < 1 || oc.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", name, traced, oc.attempted, oc.failed, oc.notes)
			}
			if len(oc.requestHash) != 16 {
				t.Errorf("%s: request hash %q", name, oc.requestHash)
			}
			listed := spec.EndToEnd
			if traced {
				listed = spec.PerLayer
				for n := range oc.values {
					produced[n] = true
				}
			}
			metrics, err := spec.render(listed, oc.values, traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
				continue
			}
			if len(metrics) != len(listed) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d listed", name, traced, len(metrics), len(listed))
			}
			for n, m := range metrics {
				if !metricNameRE.MatchString(n) || m.Unit == "" {
					t.Errorf("%s: metric %q has unit %q", name, n, m.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", name, n, m.Value)
				}
			}
			if traced {
				checkTraceFile(t, filepath.Join(root, "benchmark", "out", "trace-"+name+".json"))
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %q is listed in BENCHMARK.json but no workload measures it", m.Name)
		}
	}
	if n := leftoverServers(t); n != 0 {
		t.Errorf("%d ligra-serve children outlived their workloads", n)
	}
}

// checkTraceFile asserts the spans parse and form a forest.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	ids := map[int]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has parent %d, which does not exist", path, s.ID, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs || s.Name == "" {
			t.Errorf("%s: malformed span %+v", path, s)
		}
	}
}

// leftoverServers counts live ligra-serve processes whose parent is this
// test process.
func leftoverServers(t *testing.T) int {
	t.Helper()
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	n := 0
	for _, d := range dirs {
		stat, err := os.ReadFile(filepath.Join(d, "stat"))
		if err != nil {
			continue
		}
		open, close := bytes.IndexByte(stat, '('), bytes.LastIndexByte(stat, ')')
		if open < 0 || close < open {
			continue
		}
		fields := strings.Fields(string(stat[close+1:])) // state ppid ...
		if len(fields) < 2 || string(stat[open+1:close]) != "ligra-serve" {
			continue
		}
		if ppid, _ := strconv.Atoi(fields[1]); ppid == os.Getpid() && fields[0] != "Z" {
			n++
		}
	}
	return n
}

// TestInProcessConfigMirrorsBinary holds defaultServerConfig to the
// binary's flag defaults: the /metrics documents of the subprocess and of
// the in-process server must have the same shape and the same configured
// limits (cache budget, governor slots).
func TestInProcessConfigMirrorsBinary(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := buildBinaries(root, []string{"serve-hot"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(bins.serve, root)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	resp, err := http.Get(srv.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	server.New(defaultServerConfig()).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var inproc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &inproc); err != nil {
		t.Fatal(err)
	}
	if a, b := shape(sub), shape(inproc); !reflect.DeepEqual(a, b) {
		t.Errorf("/metrics shapes differ:\n  binary:     %v\n  in-process: %v", a, b)
	}
	for _, path := range [][]string{
		{"query_engine", "cache", "max_bytes"},
		{"query_engine", "governor", "total_slots"},
		{"query_engine", "governor", "per_query_max"},
	} {
		if a, b := dig(sub, path), dig(inproc, path); a != b || a == nil {
			t.Errorf("%s: binary has %v, in-process config gives %v", strings.Join(path, "."), a, b)
		}
	}
}

// shape lists the key paths of a decoded JSON object, sorted.
func shape(m map[string]any) []string {
	var out []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		if obj, ok := v.(map[string]any); ok && len(obj) > 0 {
			for k, c := range obj {
				walk(prefix+"."+k, c)
			}
			return
		}
		out = append(out, prefix)
	}
	walk("", m)
	sort.Strings(out)
	return out
}

func dig(m map[string]any, path []string) any {
	var v any = m
	for _, k := range path {
		obj, ok := v.(map[string]any)
		if !ok {
			return nil
		}
		v = obj[k]
	}
	return v
}

// TestCheckIsLive corrupts the oracle and expects failures: a check pass
// that cannot fail proves nothing.
func TestCheckIsLive(t *testing.T) {
	g, err := gen.RMAT(8, 16, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	oracle := newCompOracle(g)
	src := oracle.giant[0]
	runs := make([]appRun, len(appNames))
	for j, app := range appNames {
		runs[j] = runApp(ctx, g, app, passParams([]uint32{src}, 1, 0))
	}
	var ok failures
	checkPass(&ok, oracle, src, runs)
	if ok.n != 0 {
		t.Fatalf("honest oracle reported failures: %v", ok.notes)
	}
	if bad := deepCheckApps(ctx, g, src, 5); len(bad) != 0 {
		t.Fatalf("deep check failed on correct code: %v", bad)
	}

	oracle.sizes[oracle.labels[src]]++ // the giant component is now "one larger"
	oracle.count++
	var f failures
	checkPass(&f, oracle, src, runs)
	if f.n < 3 { // bfs.visited, components, bellman-ford.reached
		t.Errorf("corrupted oracle produced only %d failures: %v", f.n, f.notes)
	}
	ver := &verifier{oracle: oracle, bfsRounds: map[uint32]int{}}
	body := []byte(fmt.Sprintf(`{"details":{"visited":%d}}`, oracle.sizeOf(src)-1))
	if _, good := ver.check(&record{req: queryRequest("bfs", src, nil), status: http.StatusOK, body: body}); good || ver.f.n != 1 {
		t.Errorf("verifier accepted a bfs reply that disagrees with its oracle")
	}
	if _, good := ver.check(&record{req: queryRequest("bfs", src, nil), status: http.StatusTooManyRequests}); good {
		t.Errorf("verifier accepted a 429")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which is what the acceptance rule computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, Python gives 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, Python gives 1.5 4 12", q1, med, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 95); p != 5 || math.IsNaN(p) {
		t.Errorf("p95 of 1..5 = %v", p)
	}
}

// TestPrimingFiresCompactionWhereAsked replays the server's compaction
// rule against the priming the mixed workload computes.
func TestPrimingFiresCompactionWhereAsked(t *testing.T) {
	for _, m := range []int64{20000, 4069796, 8040566} {
		for _, fireAt := range []int{1, 10, 14} {
			p := int64(primingInserts(m, fireAt))
			fired := -1
			for j := 0; j <= fireAt+5 && fired < 0; j++ {
				churn := 2*p + int64(j)*2*(updateInserts+updateDeletes)
				edges := m + 2*p + int64(j)*2*(updateInserts-updateDeletes)
				if churn >= max(4096, edges/8) {
					fired = j
				}
			}
			if fired != fireAt {
				t.Errorf("m=%d: priming %d edges fires compaction at batch %d, want %d", m, p, fired, fireAt)
			}
		}
	}
}
