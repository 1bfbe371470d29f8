package algo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
	var buf graph.Row
	for _, v := range verts {
		ts, _ := g.OutRow(v, &buf)
		for _, d := range ts {
			if in[d] && d > v {
				edges++
			}
		}
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

// TestDensestSubgraphMatchesBruteForce holds the densest k-core to the true
// optimum rho*, found by enumerating every vertex subset, on seeded random
// graphs of at most 12 vertices and on a planted clique: Density is within
// a factor 2 of rho*, it is the density of Vertices, and Vertices is
// exactly a k-core.
func TestDensestSubgraphMatchesBruteForce(t *testing.T) {
	build := func(n int, edges []graph.Edge) *graph.Graph {
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, RemoveDuplicates: true, RemoveSelfLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	random := func(rng *rand.Rand, n int, p float64, edges []graph.Edge) []graph.Edge {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < p {
					edges = append(edges, graph.Edge{Src: uint32(a), Dst: uint32(b)})
				}
			}
		}
		return edges
	}
	graphs := map[string]*graph.Graph{}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9)
		graphs[fmt.Sprintf("random-%d", seed)] = build(n, random(rng, n, 0.15+0.6*rng.Float64(), nil))
	}
	var clique []graph.Edge
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			clique = append(clique, graph.Edge{Src: uint32(a), Dst: uint32(b)})
		}
	}
	graphs["planted-clique"] = build(12, random(rand.New(rand.NewSource(99)), 12, 0.15, clique))

	for gname, g := range graphs {
		n := g.NumVertices()
		adj := make([]uint32, n) // adjacency as bit sets
		for v := uint32(0); int(v) < n; v++ {
			ts, _ := g.OutRow(v, nil)
			for _, d := range ts {
				adj[v] |= 1 << d
			}
		}
		opt := 0.0
		for set := uint32(1); set < 1<<n; set++ {
			var edges int
			for v := 0; v < n; v++ {
				if set&(1<<v) != 0 {
					edges += bits.OnesCount32(adj[v] & set)
				}
			}
			opt = max(opt, float64(edges/2)/float64(bits.OnesCount32(set)))
		}

		res := must(DensestSubgraph(bg, g, core.Options{}))
		if res.Density < opt/2-1e-9 || res.Density > opt+1e-9 {
			t.Errorf("%s: density %v outside [rho*/2, rho*] for rho* = %v", gname, res.Density, opt)
		}
		if got := densityOf(g, res.Vertices); got != res.Density {
			t.Errorf("%s: Vertices have density %v, Density is %v", gname, got, res.Density)
		}
		coreness := must(KCoreCtx(bg, g, core.Options{})).Coreness
		kStar := int32(math.MaxInt32)
		for _, v := range res.Vertices {
			kStar = min(kStar, coreness[v])
		}
		var kCore []uint32
		for v, c := range coreness {
			if c >= kStar {
				kCore = append(kCore, uint32(v))
			}
		}
		if !slices.Equal(res.Vertices, kCore) {
			t.Errorf("%s: Vertices %v are not the %d-core %v", gname, res.Vertices, kStar, kCore)
		}
	}

	// A self-loop is no edge of any subgraph, in Density as in densityOf.
	loops, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 3},
	}, graph.BuildOptions{Symmetrize: true, RemoveDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	res := must(DensestSubgraph(bg, loops, core.Options{}))
	if got := densityOf(loops, res.Vertices); res.Density != 1 || got != 1 {
		t.Errorf("triangle with self-loops: Density %v, Vertices %v of density %v; want 1", res.Density, res.Vertices, got)
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
