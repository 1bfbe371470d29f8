package algo

import (
	"math"
	"os"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/seq"
)

func TestMain(m *testing.M) {
	parallel.SetProcs(4)
	os.Exit(m.Run())
}

// modes are the edgeMap strategies every algorithm must agree across.
var modes = map[string]core.Options{
	"auto":          {},
	"sparse":        {Mode: core.ForceSparse},
	"dense":         {Mode: core.ForceDense},
	"dense-forward": {Mode: core.ForceDense, DenseForward: true},
}

// testGraphs returns a diverse family of small graphs.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := make(map[string]*graph.Graph)
	var err error
	add := func(name string, g *graph.Graph, e error) {
		if e != nil {
			t.Fatalf("%s: %v", name, e)
		}
		gs[name] = g
	}
	var g *graph.Graph
	g, err = gen.RMAT(9, 8, gen.PBBSRMAT, 1)
	add("rmat", g, err)
	g, err = gen.Grid3D(7)
	add("grid3d", g, err)
	g, err = gen.RandomLocal(600, 5, 64, 2)
	add("randlocal", g, err)
	g, err = gen.Path(200)
	add("path", g, err)
	g, err = gen.Star(100)
	add("star", g, err)
	g, err = gen.BinaryTree(127)
	add("tree", g, err)
	g, err = gen.ErdosRenyi(300, 500, 3) // likely disconnected
	add("er-sparse", g, err)
	g, err = gen.RMATDirected(8, 4, gen.PBBSRMAT, 4)
	add("rmat-directed", g, err)
	return gs
}

func TestBFSMatchesSequential(t *testing.T) {
	for gname, g := range testGraphs(t) {
		want := seq.BFSLevels(g, 0)
		for mname, opts := range modes {
			res := BFS(g, 0, opts)
			// Parent arrays are non-deterministic; validate the implied
			// levels instead: parent None iff unreachable, and parent at
			// distance level-1.
			lv := levelsFromParents(t, g, res.Parents, 0)
			for v := range want {
				if lv[v] != want[v] {
					t.Fatalf("%s/%s: level[%d] = %d, want %d", gname, mname, v, lv[v], want[v])
				}
			}
			wantVisited := 0
			for _, l := range want {
				if l >= 0 {
					wantVisited++
				}
			}
			if res.Visited != wantVisited {
				t.Errorf("%s/%s: Visited = %d, want %d", gname, mname, res.Visited, wantVisited)
			}
		}
	}
}

// levelsFromParents derives BFS levels from a parent array, checking tree
// validity (each parent edge must exist in the graph).
func levelsFromParents(t *testing.T, g graph.View, parents []uint32, source uint32) []int32 {
	t.Helper()
	n := g.NumVertices()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -2 // unknown
	}
	var walk func(v uint32) int32
	walk = func(v uint32) int32 {
		if levels[v] != -2 {
			return levels[v]
		}
		if parents[v] == core.None {
			levels[v] = -1
			return -1
		}
		if v == source {
			levels[v] = 0
			return 0
		}
		p := parents[v]
		// The tree edge p->v must exist.
		found := false
		g.OutNeighbors(p, func(d uint32, _ int32) bool {
			if d == v {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("parent edge %d->%d not in graph", p, v)
		}
		levels[v] = walk(p) + 1
		return levels[v]
	}
	for v := uint32(0); int(v) < n; v++ {
		walk(v)
	}
	return levels
}

func TestBFSLevelsMatchesSequential(t *testing.T) {
	for gname, g := range testGraphs(t) {
		want := seq.BFSLevels(g, 0)
		for mname, opts := range modes {
			got := BFSLevels(g, 0, opts)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: level[%d] = %d, want %d", gname, mname, v, got[v], want[v])
				}
			}
		}
	}
}

func TestConnectedComponentsMatchesUnionFind(t *testing.T) {
	for gname, g := range testGraphs(t) {
		if !g.Symmetric() {
			continue
		}
		want := seq.ConnectedComponents(g)
		for mname, opts := range modes {
			res := ConnectedComponents(g, opts)
			for v := range want {
				if res.Labels[v] != want[v] {
					t.Fatalf("%s/%s: label[%d] = %d, want %d", gname, mname, v, res.Labels[v], want[v])
				}
			}
			// Component count agrees with the number of distinct labels.
			distinct := map[uint32]bool{}
			for _, l := range want {
				distinct[l] = true
			}
			if res.Components != len(distinct) {
				t.Errorf("%s/%s: Components = %d, want %d", gname, mname, res.Components, len(distinct))
			}
		}
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	for gname, g := range testGraphs(t) {
		wg := g.AddWeights(graph.HashWeight(32))
		want := seq.Dijkstra(wg, 0)
		for mname, opts := range modes {
			res := BellmanFord(wg, 0, opts)
			if res.NegativeCycle {
				t.Fatalf("%s/%s: spurious negative cycle", gname, mname)
			}
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("%s/%s: dist[%d] = %d, want %d", gname, mname, v, res.Dist[v], want[v])
				}
			}
		}
	}
}

func TestBellmanFordUnweightedEqualsBFS(t *testing.T) {
	g := testGraphs(t)["rmat"]
	res := BellmanFord(g, 0, core.Options{})
	lv := seq.BFSLevels(g, 0)
	for v := range lv {
		want := int64(lv[v])
		if lv[v] == -1 {
			want = InfDist
		}
		if res.Dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want)
		}
	}
}

func TestBellmanFordNegativeWeightsAndCycle(t *testing.T) {
	// Negative edge but no negative cycle: 0 ->(5) 1 ->(-3) 2.
	g1, err := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 5}, {Src: 1, Dst: 2, Weight: -3},
	}, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	res := BellmanFord(g1, 0, core.Options{})
	if res.NegativeCycle {
		t.Error("flagged a DAG as having a negative cycle")
	}
	if res.Dist[2] != 2 {
		t.Errorf("dist[2] = %d, want 2", res.Dist[2])
	}
	wantDist, wantNeg := seq.BellmanFord(g1, 0)
	if wantNeg || wantDist[2] != 2 {
		t.Fatal("oracle disagrees")
	}

	// Negative cycle 1 -> 2 -> 1 with total weight -1.
	g2, err := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: -3}, {Src: 2, Dst: 1, Weight: 2},
	}, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	res2 := BellmanFord(g2, 0, core.Options{})
	if !res2.NegativeCycle {
		t.Error("negative cycle not detected")
	}
	if _, neg := seq.BellmanFord(g2, 0); !neg {
		t.Error("oracle missed the negative cycle")
	}
}

func TestPageRankMatchesSequential(t *testing.T) {
	for gname, g := range testGraphs(t) {
		want := seq.PageRank(g, 0.85, 1e-10, 50)
		for mname, base := range modes {
			opts := PageRankOptions{Damping: 0.85, Epsilon: 1e-10, MaxIterations: 50, EdgeMap: base}
			res := PageRank(g, opts)
			var mass float64
			for v := range want {
				if math.Abs(res.Ranks[v]-want[v]) > 1e-9 {
					t.Fatalf("%s/%s: rank[%d] = %v, want %v", gname, mname, v, res.Ranks[v], want[v])
				}
				mass += res.Ranks[v]
			}
			if math.Abs(mass-1) > 1e-6 {
				t.Errorf("%s/%s: total mass %v, want 1", gname, mname, mass)
			}
		}
	}
}

func TestPageRankSingleIteration(t *testing.T) {
	g := testGraphs(t)["rmat"]
	res := PageRank(g, PageRankOptions{Damping: 0.85, MaxIterations: 1})
	if res.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", res.Iterations)
	}
}

func TestPageRankDeltaApproximatesPageRank(t *testing.T) {
	g := testGraphs(t)["rmat"]
	exact := seq.PageRank(g, 0.85, 1e-12, 100)
	res := PageRankDelta(g, PageRankOptions{Damping: 0.85, Epsilon: 1e-9, MaxIterations: 100}, 1e-4)
	// Rank ordering of the top vertices should agree and values be close.
	var maxErr float64
	for v := range exact {
		if e := math.Abs(res.Ranks[v] - exact[v]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-3 {
		t.Errorf("PageRankDelta max error %v too large", maxErr)
	}
}

func TestRadiiMatchesMultiBFS(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "path", "er-sparse"} {
		g := testGraphs(t)[gname]
		for mname, base := range modes {
			opts := RadiiOptions{K: 8, Seed: 5, EdgeMap: base}
			res := Radii(g, opts)
			want := seq.Eccentricities(g, res.Sources)
			for v := range want {
				if res.Radii[v] != want[v] {
					t.Fatalf("%s/%s: radii[%d] = %d, want %d", gname, mname, v, res.Radii[v], want[v])
				}
			}
		}
	}
}

func TestRadiiSourcesDistinct(t *testing.T) {
	g := testGraphs(t)["rmat"]
	res := Radii(g, RadiiOptions{K: 64, Seed: 9})
	seen := map[uint32]bool{}
	for _, s := range res.Sources {
		if seen[s] {
			t.Fatalf("duplicate source %d", s)
		}
		seen[s] = true
	}
	if len(res.Sources) != 64 {
		t.Errorf("%d sources, want 64", len(res.Sources))
	}
}

func TestBCMatchesBrandes(t *testing.T) {
	for gname, g := range testGraphs(t) {
		want := seq.BC(g, 0)
		for mname, opts := range modes {
			res := BC(g, 0, opts)
			for v := range want {
				if math.Abs(res.Scores[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
					t.Fatalf("%s/%s: BC[%d] = %v, want %v", gname, mname, v, res.Scores[v], want[v])
				}
			}
		}
	}
}

func TestBCPathCounts(t *testing.T) {
	// Diamond 0->{1,2}->3: two shortest paths to 3.
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for mname, opts := range modes {
		res := BC(g, 0, opts)
		if res.NumPaths[3] != 2 {
			t.Errorf("%s: sigma(3) = %v, want 2", mname, res.NumPaths[3])
		}
		// delta(1) = delta(2) = 1/2 each (one path through each), delta(0)=2? No:
		// dependency of source on 1: sigma(1)/sigma(3) * (1+delta(3)) = 1/2.
		if math.Abs(res.Scores[1]-0.5) > 1e-12 || math.Abs(res.Scores[2]-0.5) > 1e-12 {
			t.Errorf("%s: delta(1)=%v delta(2)=%v, want 0.5", mname, res.Scores[1], res.Scores[2])
		}
	}
}

func TestKCore(t *testing.T) {
	// Complete graph K5: every vertex has coreness 4.
	k5, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	res := KCore(k5, core.Options{})
	for v, c := range res.Coreness {
		if c != 4 {
			t.Errorf("K5 coreness[%d] = %d, want 4", v, c)
		}
	}
	if res.MaxCore != 4 {
		t.Errorf("MaxCore = %d, want 4", res.MaxCore)
	}

	// Path: coreness 1 everywhere.
	p, err := gen.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	res = KCore(p, core.Options{})
	for v, c := range res.Coreness {
		if c != 1 {
			t.Errorf("path coreness[%d] = %d, want 1", v, c)
		}
	}

	// K4 plus a pendant vertex: pendant has coreness 1, clique 3.
	g, err := graph.FromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4},
	}, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	res = KCore(g, core.Options{})
	want := []int32{3, 3, 3, 3, 1}
	for v := range want {
		if res.Coreness[v] != want[v] {
			t.Errorf("coreness[%d] = %d, want %d", v, res.Coreness[v], want[v])
		}
	}
}

func TestKCoreInvariant(t *testing.T) {
	// Against definition: in the subgraph induced by {v: coreness >= k},
	// every vertex has degree >= k, for every k up to MaxCore.
	g := testGraphs(t)["rmat"]
	res := KCore(g, core.Options{})
	for k := int32(1); k <= res.MaxCore; k++ {
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if res.Coreness[v] < k {
				continue
			}
			deg := 0
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if res.Coreness[d] >= k {
					deg++
				}
				return true
			})
			if int32(deg) < k {
				t.Fatalf("k=%d: vertex %d has induced degree %d", k, v, deg)
			}
		}
	}
}

func TestMISIndependentAndMaximal(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "path", "star", "tree", "er-sparse"} {
		g := testGraphs(t)[gname]
		res := MIS(g, 123, core.Options{})
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if res.InSet[v] {
				g.OutNeighbors(v, func(d uint32, _ int32) bool {
					if d != v && res.InSet[d] {
						t.Fatalf("%s: adjacent vertices %d and %d both in MIS", gname, v, d)
					}
					return true
				})
			} else {
				hasInNeighbor := false
				g.OutNeighbors(v, func(d uint32, _ int32) bool {
					if res.InSet[d] {
						hasInNeighbor = true
						return false
					}
					return true
				})
				if !hasInNeighbor {
					t.Fatalf("%s: vertex %d excluded with no MIS neighbor (not maximal)", gname, v)
				}
			}
		}
	}
}

func TestTriangleCountKnownValues(t *testing.T) {
	k4, _ := gen.Complete(4)
	if got := TriangleCount(k4); got != 4 {
		t.Errorf("K4 triangles = %d, want 4", got)
	}
	k5, _ := gen.Complete(5)
	if got := TriangleCount(k5); got != 10 {
		t.Errorf("K5 triangles = %d, want 10", got)
	}
	p, _ := gen.Path(100)
	if got := TriangleCount(p); got != 0 {
		t.Errorf("path triangles = %d, want 0", got)
	}
	c3, _ := gen.Cycle(3)
	if got := TriangleCount(c3); got != 1 {
		t.Errorf("C3 triangles = %d, want 1", got)
	}
}

func TestBFSFromEveryVertexSmall(t *testing.T) {
	// Exhaustive over sources on a small irregular graph.
	g := testGraphs(t)["er-sparse"]
	for src := uint32(0); src < 50; src++ {
		want := seq.BFSLevels(g, src)
		got := BFSLevels(g, src, core.Options{})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("src=%d: level[%d] = %d, want %d", src, v, got[v], want[v])
			}
		}
	}
}
