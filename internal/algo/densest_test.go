package algo

import (
	"math"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
)

// densityOf computes |E(S)|/|S| for a vertex set of a symmetric graph.
func densityOf(g graph.View, verts []uint32) float64 {
	in := map[uint32]bool{}
	for _, v := range verts {
		in[v] = true
	}
	var edges int64
	for _, v := range verts {
		g.OutNeighbors(v, func(d uint32, _ int32) bool {
			if in[d] && d > v {
				edges++
			}
			return true
		})
	}
	return float64(edges) / float64(len(verts))
}

func TestDensestSubgraphCliqueWithTail(t *testing.T) {
	// K10 plus a long path attached: the densest subgraph is the clique,
	// density (k-1)/2 = 4.5.
	const k = 10
	var edges []graph.Edge
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			edges = append(edges, graph.Edge{Src: uint32(a), Dst: uint32(b)})
		}
	}
	for i := 0; i < 30; i++ {
		edges = append(edges, graph.Edge{Src: uint32(k + i - boolToInt(i > 0)), Dst: uint32(k + i)})
	}
	g, err := graph.FromEdges(k+30, edges, graph.BuildOptions{Symmetrize: true, RemoveDuplicates: true, RemoveSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	res := must(DensestSubgraph(bg, g, core.Options{}))
	if math.Abs(res.Density-4.5) > 1e-9 {
		t.Errorf("density = %v, want 4.5", res.Density)
	}
	// The reported vertex set must achieve the reported density.
	if got := densityOf(g, res.Vertices); math.Abs(got-res.Density) > 1e-9 {
		t.Errorf("reported set has density %v, claimed %v", got, res.Density)
	}
	// The clique is inside the returned set.
	in := map[uint32]bool{}
	for _, v := range res.Vertices {
		in[v] = true
	}
	for v := uint32(0); v < k; v++ {
		if !in[v] {
			t.Errorf("clique vertex %d missing", v)
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDensestSubgraphApproximation(t *testing.T) {
	// 2-approximation sanity: the k-core bound gives maxDensity >=
	// maxCore/2, and Charikar guarantees density >= maxDensity/2 >=
	// maxCore/4; also the whole graph's density is a trivial lower bound.
	for _, gname := range []string{"rmat", "grid3d", "er-sparse"} {
		g := testGraphs(t)[gname]
		res := must(DensestSubgraph(bg, g, core.Options{}))
		whole := float64(g.NumEdges()/2) / float64(g.NumVertices())
		if res.Density < whole-1e-9 {
			t.Errorf("%s: density %v below whole-graph %v", gname, res.Density, whole)
		}
		kc := must(KCoreCtx(nil, g, core.Options{}))
		if res.Density < float64(kc.MaxCore)/2-1e-9 {
			t.Errorf("%s: density %v below maxcore/2 = %v (violates 2-approx)",
				gname, res.Density, float64(kc.MaxCore)/2)
		}
		if got := densityOf(g, res.Vertices); math.Abs(got-res.Density) > 1e-9 {
			t.Errorf("%s: set density %v != reported %v", gname, got, res.Density)
		}
	}
}

func TestDensestSubgraphDegenerate(t *testing.T) {
	p, _ := gen.Path(10)
	res := must(DensestSubgraph(bg, p, core.Options{}))
	if res.Density < 0.9-1e-9 { // path density approaches 1 (cycle-free max 9/10)
		t.Errorf("path density %v", res.Density)
	}
	single, _ := graph.FromEdges(1, nil, graph.BuildOptions{Symmetrize: true})
	res = must(DensestSubgraph(bg, single, core.Options{}))
	if res.Density != 0 {
		t.Errorf("single vertex density %v", res.Density)
	}
}
