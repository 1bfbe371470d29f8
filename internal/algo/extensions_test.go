package algo

import (
	"math/rand"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

func TestMaximalMatchingValid(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "path", "star", "tree", "er-sparse"} {
		g := testGraphs(t)[gname]
		res := must(MaximalMatching(bg, g, 7))
		const none = ^uint32(0)
		n := g.NumVertices()
		matchedEdges := 0
		for v := uint32(0); int(v) < n; v++ {
			p := res.Partner[v]
			if p == none {
				continue
			}
			// Symmetry of the matching.
			if res.Partner[p] != v {
				t.Fatalf("%s: partner asymmetry: %d->%d->%d", gname, v, p, res.Partner[p])
			}
			// Matched pairs must be actual edges.
			if !hasEdge(g, v, p) {
				t.Fatalf("%s: matched pair (%d, %d) is not an edge", gname, v, p)
			}
			if p > v {
				matchedEdges++
			}
		}
		if matchedEdges != res.Size {
			t.Errorf("%s: Size = %d, counted %d", gname, res.Size, matchedEdges)
		}
		// Maximality: no edge with both endpoints unmatched.
		for v := uint32(0); int(v) < n; v++ {
			if res.Partner[v] != none {
				continue
			}
			ts, _ := g.OutRow(v, nil)
			for _, d := range ts {
				if d != v && res.Partner[d] == none {
					t.Fatalf("%s: edge (%d, %d) has both endpoints unmatched", gname, v, d)
				}
			}
		}
	}
}

func TestMaximalMatchingKnownSizes(t *testing.T) {
	// Path of 2: exactly one matched edge.
	p2, _ := gen.Path(2)
	if res := must(MaximalMatching(bg, p2, 1)); res.Size != 1 {
		t.Errorf("P2 matching size %d, want 1", res.Size)
	}
	// Star: exactly one edge can match.
	st, _ := gen.Star(20)
	if res := must(MaximalMatching(bg, st, 1)); res.Size != 1 {
		t.Errorf("star matching size %d, want 1", res.Size)
	}
	// Complete graph K6: perfect matching of size 3 is maximal, and any
	// maximal matching in K6 has size >= 2; greedy yields 3 or 2.
	k6, _ := gen.Complete(6)
	if res := must(MaximalMatching(bg, k6, 1)); res.Size < 2 || res.Size > 3 {
		t.Errorf("K6 matching size %d", res.Size)
	}
}

func TestColoringProper(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "path", "star", "tree", "er-sparse"} {
		g := testGraphs(t)[gname]
		res := must(Coloring(bg, g, 3, core.Options{}))
		maxDeg := 0
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if d := g.OutDegree(v); d > maxDeg {
				maxDeg = d
			}
			if res.Colors[v] < 0 {
				t.Fatalf("%s: vertex %d uncolored", gname, v)
			}
			ts, _ := g.OutRow(v, nil)
			for _, d := range ts {
				if d != v && res.Colors[d] == res.Colors[v] {
					t.Fatalf("%s: adjacent %d and %d share color %d", gname, v, d, res.Colors[v])
				}
			}
		}
		if res.NumColors > maxDeg+1 {
			t.Errorf("%s: %d colors exceeds maxdeg+1 = %d", gname, res.NumColors, maxDeg+1)
		}
	}
}

func TestColoringKnownCounts(t *testing.T) {
	// Bipartite path: greedy with any order uses at most 2 colors... greedy
	// can use 2 (never 3 on a path processed in any priority order? greedy
	// on a path can use 3 in adversarial orders, but <= maxdeg+1 = 3).
	p, _ := gen.Path(50)
	res := must(Coloring(bg, p, 5, core.Options{}))
	if res.NumColors > 3 {
		t.Errorf("path colored with %d colors", res.NumColors)
	}
	// Complete graph needs exactly n colors.
	k5, _ := gen.Complete(5)
	res = must(Coloring(bg, k5, 5, core.Options{}))
	if res.NumColors != 5 {
		t.Errorf("K5 colored with %d colors, want 5", res.NumColors)
	}
}

func TestColoringDeterministic(t *testing.T) {
	g := testGraphs(t)["rmat"]
	a := must(Coloring(bg, g, 42, core.Options{}))
	b := must(Coloring(bg, g, 42, core.Options{Mode: core.ForceSparse}))
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("coloring not internally deterministic at vertex %d", v)
		}
	}
}

func TestSCCMatchesTarjan(t *testing.T) {
	// Hand-built: two 3-cycles joined by a one-way edge, plus a loner.
	g, err := graph.FromEdges(7, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 2, Dst: 3},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.SCC(g)
	got := must(SCCCtx(nil, g, core.Options{}))
	for v := range want {
		if got.Labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got.Labels[v], want[v])
		}
	}
	if got.Components != 3 {
		t.Errorf("Components = %d, want 3 (two cycles + loner)", got.Components)
	}
}

func TestSCCRandomizedAgainstTarjan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(120)
		m := rng.Intn(4 * n)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))}
		}
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{RemoveSelfLoops: true, RemoveDuplicates: true})
		if err != nil {
			t.Fatal(err)
		}
		want := seq.SCC(g)
		got := must(SCCCtx(nil, g, core.Options{}))
		for v := range want {
			if got.Labels[v] != want[v] {
				t.Fatalf("trial %d: label[%d] = %d, want %d", trial, v, got.Labels[v], want[v])
			}
		}
	}
}

func TestSCCDirectedRMAT(t *testing.T) {
	g, err := gen.RMATDirected(8, 4, gen.PBBSRMAT, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.SCC(g)
	got := must(SCCCtx(nil, g, core.Options{}))
	for v := range want {
		if got.Labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got.Labels[v], want[v])
		}
	}
}

func TestSCCOnSymmetricEqualsCC(t *testing.T) {
	// On an undirected graph SCCs are the connected components.
	g := testGraphs(t)["er-sparse"]
	want := seq.ConnectedComponents(g)
	got := must(SCCCtx(nil, g, core.Options{}))
	for v := range want {
		if got.Labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got.Labels[v], want[v])
		}
	}
}

func TestSpanningForestProperties(t *testing.T) {
	for gname, g := range testGraphs(t) {
		if !g.Symmetric() {
			continue
		}
		res := must(SpanningForest(bg, g, core.Options{}))
		n := g.NumVertices()
		comps := map[uint32]bool{}
		for _, l := range seq.ConnectedComponents(g) {
			comps[l] = true
		}
		// Exactly n - #components edges and #components roots.
		if len(res.Edges) != n-len(comps) {
			t.Fatalf("%s: %d forest edges, want %d", gname, len(res.Edges), n-len(comps))
		}
		if len(res.Roots) != len(comps) {
			t.Fatalf("%s: %d roots, want %d", gname, len(res.Roots), len(comps))
		}
		// Every vertex except roots appears exactly once as a child, and
		// each forest edge exists in the graph.
		childCount := make([]int, n)
		for _, e := range res.Edges {
			childCount[e.Dst]++
			if !hasEdge(g, e.Src, e.Dst) {
				t.Fatalf("%s: forest edge %d->%d not in graph", gname, e.Src, e.Dst)
			}
		}
		isRoot := map[uint32]bool{}
		for _, r := range res.Roots {
			isRoot[r] = true
		}
		for v := 0; v < n; v++ {
			want := 1
			if isRoot[uint32(v)] {
				want = 0
			}
			if childCount[v] != want {
				t.Fatalf("%s: vertex %d is a child %d times, want %d", gname, v, childCount[v], want)
			}
		}
	}
}
