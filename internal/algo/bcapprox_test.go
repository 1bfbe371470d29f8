package algo

import (
	"math"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

func TestBCApproxExactWhenAllSources(t *testing.T) {
	// With k = n the estimator is exact (scale factor n/n = 1): compare
	// against the sum of sequential Brandes over all sources. A k above n
	// clamps to n, as radii and eccentricity do.
	g, err := gen.ErdosRenyi(60, 150, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	want := make([]float64, n)
	for s := uint32(0); int(s) < n; s++ {
		d := seq.BC(g, s)
		for v := range d {
			want[v] += d[v]
		}
	}
	for _, k := range []int{n, n + 1} {
		res := must(BCApproxCtx(nil, g, k, 3, core.Options{}))
		if len(res.Sources) != n {
			t.Fatalf("k=%d: %d sources, want %d", k, len(res.Sources), n)
		}
		for v := range want {
			if math.Abs(res.Scores[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
				t.Fatalf("k=%d: score[%d] = %v, want %v", k, v, res.Scores[v], want[v])
			}
		}
	}
}

func TestBCApproxRanksStarCenterHighest(t *testing.T) {
	g, err := gen.Star(50)
	if err != nil {
		t.Fatal(err)
	}
	res := must(BCApproxCtx(nil, g, 10, 7, core.Options{}))
	for v := 1; v < 50; v++ {
		if res.Scores[v] > res.Scores[0] {
			t.Fatalf("leaf %d scored above the center", v)
		}
	}
	if res.Scores[0] == 0 {
		t.Error("center scored zero")
	}
}

func TestBCApproxDefaultsK(t *testing.T) {
	g, err := gen.Cycle(100)
	if err != nil {
		t.Fatal(err)
	}
	res := must(BCApproxCtx(nil, g, 0, 1, core.Options{}))
	if len(res.Sources) != 16 {
		t.Errorf("default k = %d, want 16", len(res.Sources))
	}
}

func TestLocalClusteringCoefficients(t *testing.T) {
	// Complete graph: every coefficient is 1.
	k5, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range must(LocalClusteringCoefficients(bg, k5)) {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("K5 lcc[%d] = %v, want 1", v, c)
		}
	}
	// Path: no triangles, all zero.
	p, err := gen.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range must(LocalClusteringCoefficients(bg, p)) {
		if c != 0 {
			t.Errorf("path lcc[%d] = %v, want 0", v, c)
		}
	}
	// Triangle with a pendant: pendant 0, triangle corners:
	// corner 2 (attached to pendant) has deg 3 -> 1/3; others 1.
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3},
	}, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	lcc := must(LocalClusteringCoefficients(bg, g))
	want := []float64{1, 1, 1.0 / 3, 0}
	for v := range want {
		if math.Abs(lcc[v]-want[v]) > 1e-12 {
			t.Errorf("lcc[%d] = %v, want %v", v, lcc[v], want[v])
		}
	}
}

func TestClusteringMatchesBruteForce(t *testing.T) {
	for gname, g := range testGraphs(t) {
		if !g.Symmetric() {
			continue
		}
		want := seq.ClusteringCoefficients(g)
		for v, c := range must(LocalClusteringCoefficients(bg, g)) {
			if c != want[v] {
				t.Fatalf("%s: lcc[%d] = %v, brute force %v", gname, v, c, want[v])
			}
		}
	}
}

func TestClusteringConsistentWithTriangles(t *testing.T) {
	// Sum over vertices of per-vertex triangles = 3 * total triangles.
	g := testGraphs(t)["rmat"]
	acc := make([]int64, g.NumVertices())
	if err := countTrianglesPerVertex(bg, g, acc); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range acc {
		sum += c
	}
	if want := 3 * must(TriangleCountCtx(nil, g)); sum != want {
		t.Errorf("per-vertex sum %d, want %d", sum, want)
	}
}
