// Benchmarks regenerating the paper's evaluation artifacts as testing.B
// targets (one group per table/figure; see DESIGN.md §3 for the mapping):
//
//	BenchmarkTable2/...            running times of the six applications
//	BenchmarkTable2Baseline/...    hand-written sequential baselines
//	BenchmarkFigScalability/...    time vs worker count (rMat)
//	BenchmarkFigThreshold/...      edgeMap switch-threshold sweep (BFS)
//	BenchmarkFigFrontier           full BFS with tracing enabled
//	BenchmarkFigDenseForward/...   dense (pull) vs dense-forward (push)
//	BenchmarkAblationCompress/...  CSR vs Ligra+ byte-compressed graphs
//	BenchmarkEdgeMap/...           single-operator microbenchmarks
//
// Scale is controlled by LIGRA_BENCH_SCALE (default 13, ~8k vertices) so
// `go test -bench=.` stays fast on small machines while the same harness
// scales up on larger ones.
package ligra_test

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"ligra"
	"ligra/internal/bench"
	"ligra/internal/core"
	"ligra/internal/graph"
)

func benchScale() int {
	if s := os.Getenv("LIGRA_BENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 8 {
			return v
		}
	}
	return 13
}

var (
	suiteOnce sync.Once
	suiteIn   []bench.Input
	suiteG    map[string]*graph.Graph
	suiteW    map[string]*graph.Graph
)

func suite(b *testing.B) ([]bench.Input, map[string]*graph.Graph, map[string]*graph.Graph) {
	suiteOnce.Do(func() {
		suiteIn = bench.DefaultSuite(benchScale())
		suiteG = make(map[string]*graph.Graph)
		suiteW = make(map[string]*graph.Graph)
		for _, in := range suiteIn {
			g, err := in.Build()
			if err != nil {
				panic(err)
			}
			suiteG[in.Name] = g
			suiteW[in.Name] = bench.WeightGraph(g)
		}
	})
	return suiteIn, suiteG, suiteW
}

// BenchmarkTable2 regenerates Table 2's Ligra columns: every application
// on every input graph at full parallelism.
func BenchmarkTable2(b *testing.B) {
	ins, gs, ws := suite(b)
	for _, in := range ins {
		for _, app := range bench.Apps() {
			g := graph.View(gs[in.Name])
			if app.NeedsWeights {
				g = ws[in.Name]
			}
			b.Run(in.Name+"/"+app.Name, func(b *testing.B) {
				b.ReportMetric(float64(g.NumEdges()), "edges")
				for i := 0; i < b.N; i++ {
					app.Run(g, core.Options{})
				}
			})
		}
	}
}

// BenchmarkTable2Baseline regenerates Table 2's serial columns.
func BenchmarkTable2Baseline(b *testing.B) {
	ins, gs, ws := suite(b)
	for _, in := range ins {
		for _, app := range bench.Apps() {
			g := graph.View(gs[in.Name])
			if app.NeedsWeights {
				g = ws[in.Name]
			}
			b.Run(in.Name+"/"+app.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					app.RunSeq(g)
				}
			})
		}
	}
}

// BenchmarkFigScalability regenerates the per-application scalability
// curves: rMat input, worker counts 1..Parallelism() as per-call leases
// (a lease cannot exceed the worker pool; see bench.Scalability).
func BenchmarkFigScalability(b *testing.B) {
	_, gs, ws := suite(b)
	maxP := ligra.Parallelism()
	for _, app := range bench.Apps() {
		g := graph.View(gs["rMat"])
		if app.NeedsWeights {
			g = ws["rMat"]
		}
		for p := 1; p <= maxP; p *= 2 {
			b.Run(app.Name+"/procs="+strconv.Itoa(p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					app.Run(g, core.Options{Procs: p})
				}
			})
		}
	}
}

// BenchmarkFigThreshold regenerates the threshold-sensitivity figure: BFS
// on rMat across switch thresholds, plus the sparse-only and dense-only
// extremes.
func BenchmarkFigThreshold(b *testing.B) {
	_, gs, _ := suite(b)
	g := gs["rMat"]
	src := uint32(0)
	run := func(b *testing.B, opts ligra.Options) {
		for i := 0; i < b.N; i++ {
			ligra.BFS(g, src, opts)
		}
	}
	b.Run("sparse-only", func(b *testing.B) { run(b, ligra.Options{Mode: ligra.ForceSparse}) })
	for _, denom := range []int64{1, 5, 20, 80, 320} {
		b.Run("m_div_"+strconv.FormatInt(denom, 10), func(b *testing.B) {
			run(b, ligra.Options{Threshold: g.NumEdges() / denom})
		})
	}
	b.Run("dense-only", func(b *testing.B) { run(b, ligra.Options{Mode: ligra.ForceDense}) })
}

// BenchmarkFigFrontier runs BFS with tracing on, measuring the trace
// overhead alongside the frontier experiment's code path.
func BenchmarkFigFrontier(b *testing.B) {
	_, gs, _ := suite(b)
	g := gs["rMat"]
	for i := 0; i < b.N; i++ {
		tr := &ligra.Trace{}
		ligra.BFS(g, 0, ligra.Options{Trace: tr})
		if len(tr.Entries) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkFigDenseForward compares the two dense traversals on
// whole-graph-frontier workloads.
func BenchmarkFigDenseForward(b *testing.B) {
	_, gs, _ := suite(b)
	g := gs["rMat"]
	for _, tc := range []struct {
		name string
		opts ligra.Options
	}{
		{"dense-pull", ligra.Options{Mode: ligra.ForceDense}},
		{"dense-forward", ligra.Options{Mode: ligra.ForceDense, DenseForward: true}},
	} {
		b.Run("PageRank/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ligra.PageRank(g, ligra.PageRankOptions{
					Damping: 0.85, MaxIterations: 1, EdgeMap: tc.opts,
				})
			}
		})
		b.Run("Components/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ligra.ConnectedComponents(g, tc.opts)
			}
		})
	}
}

// BenchmarkAblationCompress compares CSR and byte-compressed traversal.
func BenchmarkAblationCompress(b *testing.B) {
	_, gs, _ := suite(b)
	g := gs["rMat"]
	c, err := ligra.Compress(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		view ligra.View
	}{{"csr", g}, {"compressed", c}} {
		b.Run("BFS/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ligra.BFS(tc.view, 0, ligra.Options{})
			}
		})
		b.Run("PageRank/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ligra.PageRank(tc.view, ligra.PageRankOptions{Damping: 0.85, MaxIterations: 1})
			}
		})
	}
}

// BenchmarkEdgeMap microbenchmarks one edgeMap invocation in each mode on
// a mid-size frontier.
func BenchmarkEdgeMap(b *testing.B) {
	_, gs, _ := suite(b)
	g := gs["rMat"]
	n := g.NumVertices()
	// Build a frontier of ~1/8 of the vertices.
	frontier := ligra.NewFromFunc(n, func(v uint32) bool { return v%8 == 0 })
	frontier.ToSparse()
	frontier.ToDense()
	visited := make([]uint32, n)
	funcs := ligra.EdgeFuncs{
		Update:       func(_, d uint32, _ int32) bool { visited[d] = 1; return false },
		UpdateAtomic: func(_, d uint32, _ int32) bool { visited[d] = 1; return false },
	}
	for _, tc := range []struct {
		name string
		opts ligra.Options
	}{
		{"sparse", ligra.Options{Mode: ligra.ForceSparse, NoOutput: true}},
		{"dense", ligra.Options{Mode: ligra.ForceDense, NoOutput: true}},
		{"dense-forward", ligra.Options{Mode: ligra.ForceDense, DenseForward: true, NoOutput: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ligra.EdgeMap(g, frontier, funcs, tc.opts)
			}
		})
	}
}

// BenchmarkVertexSubset microbenchmarks the representation conversions.
func BenchmarkVertexSubset(b *testing.B) {
	n := 1 << benchScale()
	b.Run("sparse-to-dense", func(b *testing.B) {
		ids := make([]uint32, n/8)
		for i := range ids {
			ids[i] = uint32(i * 8)
		}
		for i := 0; i < b.N; i++ {
			vs := ligra.NewSparse(n, ids)
			vs.ToDense()
		}
	})
	b.Run("dense-to-sparse", func(b *testing.B) {
		proto := ligra.NewFromFunc(n, func(v uint32) bool { return v%8 == 0 })
		for i := 0; i < b.N; i++ {
			vs := proto.Clone()
			vs.ToSparse()
		}
	})
}

// BenchmarkExtensions covers the extension algorithms (ablations and
// follow-on work) on the rMat input.
func BenchmarkExtensions(b *testing.B) {
	_, gs, ws := suite(b)
	g := gs["rMat"]
	wg := ws["rMat"]
	b.Run("KCore-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.KCore(g, ligra.Options{})
		}
	})
	b.Run("DeltaStepping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ligra.DeltaStepping(wg, 0, 0, ligra.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MIS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.MIS(g, 1, ligra.Options{})
		}
	})
	b.Run("MaximalMatching", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.MaximalMatching(g, 1)
		}
	})
	b.Run("Coloring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.Coloring(g, 1, ligra.Options{})
		}
	})
	b.Run("TriangleCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.TriangleCount(g)
		}
	})
	b.Run("SCC-directed", func(b *testing.B) {
		dg, err := ligra.RMATDirected(benchScale()-1, 8, ligra.PBBSRMAT, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ligra.SCC(dg, ligra.Options{})
		}
	})
	b.Run("LDD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.LDD(g, 0.2, 1, ligra.Options{})
		}
	})
	b.Run("CC-LDD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.ConnectedComponentsLDD(g, 0.2, 1, ligra.Options{})
		}
	})
	b.Run("SpanningForest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.SpanningForest(g, ligra.Options{})
		}
	})
	b.Run("LocalCluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ligra.LocalCluster(g, 0, 0.15, 1e-6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TwoPassEccentricity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.TwoPassEccentricity(g, 16, 1, ligra.Options{})
		}
	})
}
