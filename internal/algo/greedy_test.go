package algo_test

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
	"ligra/internal/viewtest"
)

// greedyGraphs are symmetric inputs for the greedy kernels: scale-free,
// high-diameter, disconnected, and one hub with every other vertex its
// leaf, at two sizes.
func greedyGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs[name] = g
	}
	g, err := gen.RMAT(9, 8, gen.PBBSRMAT, 1)
	add("rmat", g, err)
	g, err = gen.Grid3D(7)
	add("grid", g, err)
	g, err = gen.ErdosRenyi(300, 260, 3)
	add("disconnected", g, err)
	g, err = gen.Star(200)
	add("star", g, err)
	g, err = gen.Star(5000) // a hub above 4 095 neighbors
	add("wide-star", g, err)
	return gs
}

// greedyModes are the edgeMap modes the greedy kernels must agree across.
var greedyModes = map[string]core.Options{
	"auto":          {},
	"sparse":        {Mode: core.Sparse},
	"dense":         {Mode: core.Pull},
	"dense-forward": {Mode: core.Forward},
}

// priorityOrder is the order the greedy kernels decide vertices in:
// priority hashU64(seed, v) descending, ties by ID descending.
func priorityOrder(n int, seed uint64) []uint32 {
	order := make([]uint32, n)
	for v := range order {
		order[v] = uint32(v)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(algo.HashU64(seed, uint64(b)), algo.HashU64(seed, uint64(a))), cmp.Compare(b, a))
	})
	return order
}

// TestColoringMatchesGreedy: on every representation and under every
// mode, Coloring's whole Colors array is the sequential greedy coloring
// in priority order, and NumColors counts its colors.
func TestColoringMatchesGreedy(t *testing.T) {
	const seed = 3
	for gname, g := range greedyGraphs(t) {
		want := seq.GreedyColoring(g, priorityOrder(g.NumVertices(), seed))
		for vname, v := range viewtest.Matrix(t, g, viewtest.NetZero(g)...) {
			for mname, opts := range greedyModes {
				res, err := algo.Coloring(context.Background(), v, seed, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", gname, vname, mname, err)
				}
				if !slices.Equal(res.Colors, want) {
					t.Errorf("%s/%s/%s: Colors differ from the greedy coloring", gname, vname, mname)
				} else if res.NumColors != int(slices.Max(want))+1 {
					t.Errorf("%s/%s/%s: NumColors = %d, want %d", gname, vname, mname, res.NumColors, slices.Max(want)+1)
				}
			}
		}
	}
}

// TestColoringColorsDirectedInput: on a directed graph, under every mode,
// Coloring still colors every vertex, because it counts each vertex's
// wait over the in-row that every mode decrements along.
func TestColoringColorsDirectedInput(t *testing.T) {
	g, err := gen.RMATDirected(9, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	for mname, opts := range greedyModes {
		res, err := algo.Coloring(context.Background(), g, 3, opts)
		if err != nil {
			t.Fatalf("%s: %v", mname, err)
		}
		if v := slices.Index(res.Colors, -1); v >= 0 {
			t.Errorf("%s: vertex %d left uncolored", mname, v)
		}
	}
}

// TestMISMatchesGreedy: on every representation and under every mode,
// MISCtx's whole InSet is the sequential greedy set in priority order.
func TestMISMatchesGreedy(t *testing.T) {
	const seed = 123
	for gname, g := range greedyGraphs(t) {
		want := seq.GreedyMIS(g, priorityOrder(g.NumVertices(), seed))
		for vname, v := range viewtest.Matrix(t, g, viewtest.NetZero(g)...) {
			for mname, opts := range greedyModes {
				res, err := algo.MISCtx(context.Background(), v, seed, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", gname, vname, mname, err)
				}
				if !slices.Equal(res.InSet, want) {
					t.Errorf("%s/%s/%s: InSet differs from the greedy set", gname, vname, mname)
				}
			}
		}
	}
}
