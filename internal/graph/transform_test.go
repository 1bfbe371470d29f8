package graph

import (
	"testing"
)

// triangleWithTail: 0-1-2 triangle plus 2-3 tail, symmetric, weighted.
func triangleWithTail(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, []Edge{
		{0, 1, 5}, {1, 2, 6}, {2, 0, 7}, {2, 3, 8},
	}, BuildOptions{Symmetrize: true, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRelabelIdentity(t *testing.T) {
	g := triangleWithTail(t)
	perm := []uint32{0, 1, 2, 3}
	ng, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != g.NumEdges() || !ng.Symmetric() {
		t.Fatal("identity relabel changed structure")
	}
	for v := uint32(0); v < 4; v++ {
		if ng.OutDegree(v) != g.OutDegree(v) {
			t.Errorf("degree of %d changed", v)
		}
	}
}

func TestRelabelPermutes(t *testing.T) {
	g := triangleWithTail(t)
	perm := []uint32{3, 2, 1, 0} // reverse
	ng, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	// Old vertex 3 (degree 1) is now vertex 0.
	if ng.OutDegree(0) != 1 || ng.OutDegree(1) != 3 {
		t.Errorf("degrees after relabel: %d %d", ng.OutDegree(0), ng.OutDegree(1))
	}
	if err := Validate(ng); err != nil {
		t.Error(err)
	}
	// Weights travel with edges: old edge 2-3 (w=8) is now 1-0.
	if edgeWeight(ng, 0, 1) != 8 {
		t.Error("weight did not travel with the relabeled edge")
	}
}

func TestRelabelRejectsBadPermutations(t *testing.T) {
	g := triangleWithTail(t)
	if _, err := Relabel(g, []uint32{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := Relabel(g, []uint32{0, 0, 1, 2}); err == nil {
		t.Error("non-bijective permutation accepted")
	}
	if _, err := Relabel(g, []uint32{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

func TestDegreeOrderPermutation(t *testing.T) {
	g := triangleWithTail(t)
	perm := DegreeOrderPermutation(g)
	// Vertex 2 has the highest degree (3) -> rank 0.
	if perm[2] != 0 {
		t.Errorf("perm[2] = %d, want 0", perm[2])
	}
	// Vertex 3 has the lowest degree (1) -> rank 3.
	if perm[3] != 3 {
		t.Errorf("perm[3] = %d, want 3", perm[3])
	}
	ng, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	// Degrees must now be non-increasing.
	for v := 1; v < ng.NumVertices(); v++ {
		if ng.OutDegree(uint32(v)) > ng.OutDegree(uint32(v-1)) {
			t.Fatalf("degree order violated at %d", v)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := triangleWithTail(t)
	// Keep the triangle only.
	sub, newID, oldID, err := InducedSubgraph(g, func(v uint32) bool { return v != 3 })
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 6 {
		t.Fatalf("subgraph n=%d m=%d, want 3/6", sub.NumVertices(), sub.NumEdges())
	}
	if !sub.Symmetric() {
		t.Error("symmetry lost")
	}
	if err := Validate(sub); err != nil {
		t.Error(err)
	}
	for old := uint32(0); old < 3; old++ {
		if oldID[newID[old]] != old {
			t.Errorf("ID maps inconsistent for %d", old)
		}
	}
	if newID[3] != ^uint32(0) {
		t.Error("dropped vertex has a new ID")
	}
}

func TestInducedSubgraphEmptyRejected(t *testing.T) {
	g := triangleWithTail(t)
	if _, _, _, err := InducedSubgraph(g, func(uint32) bool { return false }); err == nil {
		t.Error("empty subgraph accepted")
	}
}

func TestFilterEdges(t *testing.T) {
	g := triangleWithTail(t)
	// Drop the tail edge (weight 8) in both directions.
	ng, err := FilterEdges(g, func(_, _ uint32, w int32) bool { return w != 8 })
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != 6 {
		t.Fatalf("m = %d, want 6", ng.NumEdges())
	}
	if ng.OutDegree(3) != 0 {
		t.Error("tail vertex still has edges")
	}
	if err := Validate(ng); err != nil {
		t.Error(err)
	}
}

func TestFilterEdgesDirected(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 0, 3}}, BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	ng, err := FilterEdges(g, func(s, _ uint32, _ int32) bool { return s != 1 })
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != 2 || ng.OutDegree(1) != 0 {
		t.Errorf("directed filter wrong: m=%d deg(1)=%d", ng.NumEdges(), ng.OutDegree(1))
	}
	if ng.InDegree(2) != 0 {
		t.Error("transpose not rebuilt after filtering")
	}
}
