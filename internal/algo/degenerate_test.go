package algo

import (
	"testing"

	"ligra/internal/core"
	"ligra/internal/graph"
)

// singleVertex returns the 1-vertex, 0-edge graph.
func singleVertex(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(1, nil, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeless returns n isolated vertices.
func edgeless(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, nil, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAlgorithmsOnSingleVertex(t *testing.T) {
	g := singleVertex(t)
	if res := must(BFSCtx(nil, g, 0, core.Options{})); res.Visited != 1 || res.Rounds != 0 {
		t.Errorf("BFS: %+v", res)
	}
	if res := must(ConnectedComponentsCtx(nil, g, core.Options{})); res.Components != 1 {
		t.Errorf("CC components = %d", res.Components)
	}
	if res := must(PageRankCtx(nil, g, PageRankOptions{Damping: 0.85, MaxIterations: 5})); len(res.Ranks) != 1 || res.Ranks[0] < 0.99 {
		t.Errorf("PageRank = %v", res.Ranks)
	}
	if res := must(BellmanFordCtx(nil, g, 0, core.Options{})); res.Dist[0] != 0 {
		t.Errorf("BF dist = %v", res.Dist)
	}
	if res := must(BCCtx(nil, g, 0, core.Options{})); res.Scores[0] != 0 {
		t.Errorf("BC = %v", res.Scores)
	}
	if res := must(RadiiCtx(nil, g, RadiiOptions{K: 64, Seed: 1})); res.Radii[0] != 0 {
		t.Errorf("Radii = %v", res.Radii)
	}
	if res := must(KCoreCtx(nil, g, core.Options{})); res.Coreness[0] != 0 {
		t.Errorf("KCore = %v", res.Coreness)
	}
	if res := must(MISCtx(nil, g, 1, core.Options{})); !res.InSet[0] {
		t.Error("MIS must contain the only vertex")
	}
	if got := must(TriangleCountCtx(nil, g)); got != 0 {
		t.Errorf("triangles = %d", got)
	}
	if res := must(MaximalMatching(bg, g, 1)); res.Size != 0 {
		t.Errorf("matching size = %d", res.Size)
	}
	if res := must(Coloring(bg, g, 1, core.Options{})); res.NumColors != 1 {
		t.Errorf("colors = %d", res.NumColors)
	}
	if res := must(SCCCtx(nil, g, core.Options{})); res.Components != 1 {
		t.Errorf("SCC = %d", res.Components)
	}
	if res := must(LDD(bg, g, 0.5, 1, core.Options{})); res.NumClusters != 1 {
		t.Errorf("LDD clusters = %d", res.NumClusters)
	}
}

func TestAlgorithmsOnEdgelessGraph(t *testing.T) {
	g := edgeless(t, 50)
	if res := must(BFSCtx(nil, g, 7, core.Options{})); res.Visited != 1 {
		t.Errorf("BFS visited %d", res.Visited)
	}
	if res := must(ConnectedComponentsCtx(nil, g, core.Options{})); res.Components != 50 {
		t.Errorf("components = %d", res.Components)
	}
	pr := must(PageRankCtx(nil, g, PageRankOptions{Damping: 0.85, MaxIterations: 10, Epsilon: 1e-12}))
	var mass float64
	for _, r := range pr.Ranks {
		mass += r
	}
	if mass < 0.999 || mass > 1.001 {
		t.Errorf("PageRank mass on dangling-only graph = %v", mass)
	}
	if res := must(MISCtx(nil, g, 1, core.Options{})); countTrue(res.InSet) != 50 {
		t.Error("MIS on edgeless graph must include everything")
	}
	if res := must(MaximalMatching(bg, g, 1)); res.Size != 0 {
		t.Errorf("matching on edgeless graph = %d", res.Size)
	}
	if res := must(Coloring(bg, g, 1, core.Options{})); res.NumColors != 1 {
		t.Errorf("edgeless coloring used %d colors", res.NumColors)
	}
	if res := must(SCCCtx(nil, g, core.Options{})); res.Components != 50 {
		t.Errorf("SCC = %d", res.Components)
	}
	kc := must(KCoreCtx(nil, g, core.Options{}))
	for v, c := range kc.Coreness {
		if c != 0 {
			t.Errorf("coreness[%d] = %d", v, c)
		}
	}
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

func TestBFSFromIsolatedVertexInLargerGraph(t *testing.T) {
	// Vertex 5 is isolated inside an otherwise connected graph.
	g, err := graph.FromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4},
	}, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	res := must(BFSCtx(nil, g, 5, core.Options{}))
	if res.Visited != 1 || res.Rounds != 0 {
		t.Errorf("BFS from isolated vertex: %+v", res)
	}
	for v, p := range res.Parents {
		if v == 5 {
			if p != 5 {
				t.Error("source parent wrong")
			}
		} else if p != core.None {
			t.Errorf("vertex %d has parent %d", v, p)
		}
	}
}

func TestSelfLoopsAreHarmless(t *testing.T) {
	// Self-loops kept in the graph (no RemoveSelfLoops): traversals must
	// not diverge or double-count.
	g, err := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lv := must(BFSLevelsCtx(nil, g, 0, core.Options{}))
	want := []int32{0, 1, 2}
	for v := range want {
		if lv[v] != want[v] {
			t.Errorf("level[%d] = %d, want %d", v, lv[v], want[v])
		}
	}
	if res := must(BellmanFordCtx(nil, g, 0, core.Options{})); res.NegativeCycle {
		t.Error("self-loops flagged as negative cycle")
	}
}

func TestDisconnectedBellmanFord(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 3},
	}, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	res := must(BellmanFordCtx(nil, g, 0, core.Options{}))
	if res.Dist[1] != 3 || res.Dist[2] != InfDist || res.Dist[3] != InfDist {
		t.Errorf("dist = %v", res.Dist)
	}
}

func TestPageRankNoStoppingRuleDefaults(t *testing.T) {
	// MaxIterations <= 0 with Epsilon <= 0 would mean "never stop"; the
	// implementation falls back to a default iteration bound instead of
	// looping forever.
	g := edgeless(t, 4)
	res := must(PageRankCtx(nil, g, PageRankOptions{Damping: 0.85, MaxIterations: 0, Epsilon: 0}))
	if res.Iterations <= 0 || res.Iterations > 1000 {
		t.Errorf("iterations = %d, expected a bounded default", res.Iterations)
	}
}
