package graph_test

import (
	"cmp"
	"slices"
	"testing"

	"ligra/internal/gen"
	"ligra/internal/graph"
)

// TestDegreeOrderMatchesStableSort pins the whole permutation, tie order
// included: vertices ranked by decreasing out-degree, equal degrees in
// increasing ID order, exactly as a stable sort of the identity order
// gives it.
func TestDegreeOrderMatchesStableSort(t *testing.T) {
	rmat, err := gen.RMAT(14, 16, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid3D(20)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gen.Star(1000)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"rmat14": rmat, "grid3d20": grid, "star1000": star} {
		n := g.NumVertices()
		order := make([]uint32, n)
		for v := range order {
			order[v] = uint32(v)
		}
		slices.SortStableFunc(order, func(a, b uint32) int {
			return cmp.Compare(g.OutDegree(b), g.OutDegree(a))
		})
		perm := graph.DegreeOrderPermutation(g)
		if len(perm) != n {
			t.Fatalf("%s: len(perm) = %d, want %d", name, len(perm), n)
		}
		for rank, v := range order {
			if perm[v] != uint32(rank) {
				t.Fatalf("%s: perm[%d] = %d, want %d", name, v, perm[v], rank)
			}
		}
	}
}
