package algo

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// TestEveryRunnerRuns executes each table entry on a small graph and
// checks it produces a summary and JSON-friendly details.
func TestEveryRunnerRuns(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.AddWeights(graph.HashWeight(31))
	for _, r := range Runners() {
		view := graph.View(g)
		if r.NeedsWeights {
			view = wg
		}
		p := Params{Source: 0}
		if r.Name == "landmarks" {
			p.Landmarks = []uint32{1, 2}
		}
		res, err := r.Run(context.Background(), view, p)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if res.Summary == "" {
			t.Errorf("%s: empty summary", r.Name)
		}
		if len(res.Details) == 0 {
			t.Errorf("%s: no details", r.Name)
		}
	}
}

// TestRunnersOnZeroVertexGraph: every runner that needs no source answers
// on the empty graph with a well-formed reply — no error, every float a
// finite number (JSON has no NaN), and no negative round count.
func TestRunnersOnZeroVertexGraph(t *testing.T) {
	g, err := graph.ReadAdjacency(strings.NewReader("AdjacencyGraph\n0\n0\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Runners() {
		if r.NeedsSource {
			continue
		}
		res, err := r.Run(context.Background(), g, Params{})
		if err != nil {
			t.Errorf("%s: %v", r.Name, err)
			continue
		}
		for k, v := range res.Details {
			if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
				t.Errorf("%s: %s = %v", r.Name, k, f)
			}
			if n, ok := v.(int); ok && k == "rounds" && n < 0 {
				t.Errorf("%s: rounds = %d", r.Name, n)
			}
		}
	}
}

// TestUndirectedRunnersRefuseDirectedGraph: MIS, coloring, matching,
// components, kcore, densest, local-cluster, triangles and clustering are
// defined on undirected graphs; on a directed one each runner returns an
// error rather than a wrong result reported as success (an MIS with
// edges inside it, a negative conductance, too many components); the
// deadline bounds a refusal that never comes. No other runner is marked
// undirected-only.
func TestUndirectedRunnersRefuseDirectedGraph(t *testing.T) {
	g, err := gen.RMATDirected(9, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	undirected := []string{"mis", "coloring", "matching", "components", "kcore", "densest", "local-cluster", "triangles", "clustering"}
	for _, name := range undirected {
		r, _ := FindRunner(name)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := r.Run(ctx, g, Params{})
		cancel()
		if err == nil || !strings.Contains(err.Error(), "undirected") {
			t.Errorf("%s on a directed graph: err = %v, summary %q", name, err, res.Summary)
		}
	}
	for _, r := range Runners() {
		if r.Undirected != slices.Contains(undirected, r.Name) {
			t.Errorf("%s: Undirected = %t", r.Name, r.Undirected)
		}
	}
}

func TestFindRunner(t *testing.T) {
	r, ok := FindRunner("bfs")
	if !ok || r.Name != "bfs" || !r.NeedsSource {
		t.Fatalf("bfs runner = %+v, ok=%t", r, ok)
	}
	if _, ok := FindRunner("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	if err := UnknownAlgoError("nope"); !strings.Contains(err.Error(), "bfs") {
		t.Errorf("UnknownAlgoError should list the valid names: %v", err)
	}
	if len(RunnerNames()) != len(Runners()) {
		t.Error("RunnerNames out of sync with Runners")
	}
}

// TestRadiiRunnerSamplesOneWord: RadiiCtx takes any K, but a radii query
// runs one sweep, so k past 64 replies 64 sources, the sample RadiiCtx
// draws at K = 64.
func TestRadiiRunnerSamplesOneWord(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := FindRunner("radii")
	res, err := r.Run(context.Background(), g, Params{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Details["sources"]; got != 64 {
		t.Errorf("radii k=100 replied sources %v, want 64", got)
	}
	want := must(RadiiCtx(nil, g, RadiiOptions{K: 64, Seed: 1}))
	if got := res.Details["rounds"]; got != want.Rounds {
		t.Errorf("radii k=100 replied rounds %v, RadiiCtx at K=64 ran %d", got, want.Rounds)
	}
}

// runnerChecks names, for every registered runner, the test of this
// package that checks the runner's whole result, by an oracle or a
// validator.
var runnerChecks = map[string]string{
	"bfs":            "TestBFSMatchesSequential",
	"reach":          "TestBatchResultMatchesRunners",
	"landmarks":      "TestBatchResultMatchesRunners",
	"bc":             "TestBCMatchesBrandes",
	"bc-approx":      "TestBCApproxExactWhenAllSources",
	"radii":          "TestRadiiMatchesMultiBFS",
	"components":     "TestConnectedComponentsMatchesUnionFind",
	"pagerank":       "TestPageRankMatchesSequential",
	"pagerank-delta": "TestPageRankDeltaApproximatesPageRank",
	"bellman-ford":   "TestBellmanFordMatchesDijkstra",
	"kcore":          "TestKCoreMatchesSequential",
	"mis":            "TestMISMatchesGreedy",
	"scc":            "TestSCCRandomizedAgainstTarjan",
	"coloring":       "TestColoringMatchesGreedy",
	"matching":       "TestMaximalMatchingValid",
	"eccentricity":   "TestTwoPassEccentricityMatchesSequential",
	"densest":        "TestDensestSubgraphMatchesBruteForce",
	"local-cluster":  "TestLocalClusterMatchesMapReference",
	"triangles":      "TestTriangleCountMatchesSequential",
	"clustering":     "TestClusteringMatchesBruteForce",
}

// TestEveryRunnerIsChecked keeps the registry to runners whose whole
// result some test checks: every runner has an entry in runnerChecks, and
// every test named there exists in this package.
func TestEveryRunnerIsChecked(t *testing.T) {
	paths, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
				tests[fd.Name.Name] = true
			}
		}
	}
	if !tests["TestEveryRunnerIsChecked"] {
		t.Fatal("did not find this test among the package's tests: the walk is broken")
	}
	for _, name := range RunnerNames() {
		check, ok := runnerChecks[name]
		switch {
		case !ok:
			t.Errorf("runner %q has no test checking its whole result", name)
		case !tests[check]:
			t.Errorf("runner %q: its check %s is not a test of this package", name, check)
		}
	}
	for name := range runnerChecks {
		if _, ok := FindRunner(name); !ok {
			t.Errorf("runnerChecks names %q, which is not a runner", name)
		}
	}
}

// TestCancellableRunnersReturnPartial proves every runner honors an
// already-cancelled context: it returns the cancellation (wrapped in
// *RoundError) together with a usable partial summary.
func TestCancellableRunnersReturnPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	forEachRunner(t, func(r Runner, g graph.View, p Params) {
		res, err := r.Run(ctx, g, p)
		requireInterrupted(t, err, context.Canceled)
		if res.Summary == "" {
			t.Errorf("%s: no partial summary", r.Name)
		}
	})
}

// TestRunnersPreCancelledRunNoChunk: a ctx cancelled on entry stops every
// runner before its first parallel pass. With the chunk hook armed to
// panic, any chunk that ran would turn the reply into a *PanicError.
func TestRunnersPreCancelledRunNoChunk(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	forEachRunner(t, func(r Runner, g graph.View, p Params) {
		disarm := faultinject.PanicOnChunk(1, "a chunk ran under a cancelled ctx")
		_, err := r.Run(ctx, g, p)
		disarm()
		if errors.As(err, new(*parallel.PanicError)) {
			t.Errorf("%s: %v", r.Name, err)
			return
		}
		requireInterrupted(t, err, context.Canceled)
	})
}

// TestRunnersUnderOneProcLeaseNeverDispatch: a query leased one proc runs
// every pass of it — edgeMap rounds and vertex phases — on its own
// goroutine, so no registered runner hands the worker pool a single loop.
func TestRunnersUnderOneProcLeaseNeverDispatch(t *testing.T) {
	ctx := parallel.WithProcs(context.Background(), 1)
	forEachRunner(t, func(r Runner, g graph.View, p Params) {
		before := parallel.SchedulerSnapshot()
		if _, err := r.Run(ctx, g, p); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if d := parallel.SchedulerSnapshot().Sub(before).Dispatches; d != 0 {
			t.Errorf("%s: %d dispatches under a one-proc lease", r.Name, d)
		}
	})
}

// forEachRunner calls fn for every registered runner with valid inputs on
// a graph above the sequential cutoff, under four workers, so any loop
// not bounded by a ctx dispatches.
func forEachRunner(t *testing.T, fn func(r Runner, g graph.View, p Params)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.AddWeights(graph.HashWeight(31))
	for _, r := range Runners() {
		view := graph.View(g)
		if r.NeedsWeights {
			view = wg
		}
		p := Params{Source: 0}
		if r.Name == "landmarks" {
			p.Landmarks = []uint32{1} // validation precedes the sweep
		}
		fn(r, view, p)
	}
}
