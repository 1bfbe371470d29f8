package graph

import (
	"os"
	"testing"

	"ligra/internal/parallel"
)

func TestMain(m *testing.M) {
	parallel.SetProcs(4)
	os.Exit(m.Run())
}

// diamond returns the directed diamond 0->1, 0->2, 1->3, 2->3 (weighted).
func diamond(t *testing.T, weighted bool) *Graph {
	t.Helper()
	edges := []Edge{
		{0, 1, 5}, {0, 2, 3}, {1, 3, 2}, {2, 3, 7},
	}
	g, err := FromEdges(4, edges, BuildOptions{Weighted: weighted})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	g := diamond(t, false)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Symmetric() {
		t.Error("directed graph reported symmetric")
	}
	if g.Weighted() {
		t.Error("unweighted graph reported weighted")
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 0 {
		t.Errorf("out-degrees: %d %d", g.OutDegree(0), g.OutDegree(3))
	}
	if g.InDegree(3) != 2 || g.InDegree(0) != 0 {
		t.Errorf("in-degrees: %d %d", g.InDegree(3), g.InDegree(0))
	}
	var outs []uint32
	g.OutNeighbors(0, func(d uint32, w int32) bool {
		if w != 1 {
			t.Errorf("unweighted graph yielded weight %d", w)
		}
		outs = append(outs, d)
		return true
	})
	if len(outs) != 2 || outs[0] != 1 || outs[1] != 2 {
		t.Errorf("out-neighbors of 0: %v", outs)
	}
	var ins []uint32
	g.InNeighbors(3, func(s uint32, _ int32) bool {
		ins = append(ins, s)
		return true
	})
	if len(ins) != 2 || ins[0] != 1 || ins[1] != 2 {
		t.Errorf("in-neighbors of 3: %v", ins)
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	g := diamond(t, true)
	if !g.Weighted() {
		t.Fatal("weighted flag lost")
	}
	weightOf := func(s, d uint32) int32 {
		var got int32 = -1
		g.OutNeighbors(s, func(dd uint32, w int32) bool {
			if dd == d {
				got = w
				return false
			}
			return true
		})
		return got
	}
	for _, tc := range []struct {
		s, d uint32
		w    int32
	}{{0, 1, 5}, {0, 2, 3}, {1, 3, 2}, {2, 3, 7}} {
		if got := weightOf(tc.s, tc.d); got != tc.w {
			t.Errorf("weight(%d->%d) = %d, want %d", tc.s, tc.d, got, tc.w)
		}
	}
	// Transposed weights must be consistent.
	var inW []int32
	g.InNeighbors(3, func(s uint32, w int32) bool {
		inW = append(inW, w)
		return true
	})
	if len(inW) != 2 || inW[0] != 2 || inW[1] != 7 {
		t.Errorf("in-weights of 3: %v", inW)
	}
}

func TestEarlyExitIteration(t *testing.T) {
	g := diamond(t, false)
	visits := 0
	g.OutNeighbors(0, func(uint32, int32) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("early exit visited %d edges, want 1", visits)
	}
}

func TestSymmetrize(t *testing.T) {
	edges := []Edge{{0, 1, 0}, {1, 2, 0}}
	g, err := FromEdges(3, edges, BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Symmetric() {
		t.Fatal("not symmetric")
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m = %d, want 4", g.NumEdges())
	}
	if g.OutDegree(1) != 2 || g.InDegree(1) != 2 {
		t.Errorf("degree of middle vertex: out=%d in=%d", g.OutDegree(1), g.InDegree(1))
	}
	if err := Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRemoveSelfLoopsAndDuplicates(t *testing.T) {
	edges := []Edge{{0, 0, 1}, {0, 1, 9}, {0, 1, 4}, {1, 0, 2}, {1, 1, 3}}
	g, err := FromEdges(2, edges, BuildOptions{
		RemoveSelfLoops: true, RemoveDuplicates: true, Weighted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 (loops and dups removed)", g.NumEdges())
	}
	// Duplicate (0,1) kept the minimum weight 4.
	var w01 int32
	g.OutNeighbors(0, func(d uint32, w int32) bool {
		if d == 1 {
			w01 = w
		}
		return true
	})
	if w01 != 4 {
		t.Errorf("kept weight %d for duplicate edge, want min 4", w01)
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges(0, nil, BuildOptions{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := FromEdges(2, []Edge{{0, 5, 0}}, BuildOptions{}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := FromEdges(2, []Edge{{7, 0, 0}}, BuildOptions{}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestFromCSRValidation(t *testing.T) {
	// Good CSR.
	g, err := FromCSR([]int64{0, 2, 3, 3}, []uint32{1, 2, 2}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatal("wrong sizes")
	}
	if g.InDegree(2) != 2 {
		t.Errorf("InDegree(2) = %d, want 2", g.InDegree(2))
	}
	// Bad CSRs.
	if _, err := FromCSR([]int64{}, nil, nil, false); err == nil {
		t.Error("empty offsets accepted")
	}
	if _, err := FromCSR([]int64{1, 2}, []uint32{0}, nil, false); err == nil {
		t.Error("offsets[0] != 0 accepted")
	}
	if _, err := FromCSR([]int64{0, 2, 1}, []uint32{0}, nil, false); err == nil {
		t.Error("decreasing offsets accepted")
	}
	if _, err := FromCSR([]int64{0, 1}, []uint32{5}, nil, false); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromCSR([]int64{0, 1}, []uint32{0}, []int32{1, 2}, false); err == nil {
		t.Error("weights length mismatch accepted")
	}
}

func TestTranspose(t *testing.T) {
	g := diamond(t, true)
	gt := g.Transpose()
	if gt.OutDegree(3) != 2 || gt.InDegree(3) != 0 {
		t.Errorf("transpose degrees wrong: out=%d in=%d", gt.OutDegree(3), gt.InDegree(3))
	}
	// Transposing twice gives back the original adjacency.
	gtt := gt.Transpose()
	if gtt.OutDegree(0) != g.OutDegree(0) {
		t.Error("double transpose differs")
	}
	// Symmetric graph: transpose is identity.
	sg, _ := FromEdges(2, []Edge{{0, 1, 0}}, BuildOptions{Symmetrize: true})
	if sg.Transpose() != sg {
		t.Error("symmetric transpose should be the same object")
	}
}

func TestAddWeights(t *testing.T) {
	edges := []Edge{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}}
	g, err := FromEdges(3, edges, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wg := g.AddWeights(HashWeight(10))
	if !wg.Weighted() {
		t.Fatal("AddWeights did not mark weighted")
	}
	// Forward and transposed weights must agree edge by edge.
	wg.OutNeighbors(0, func(d uint32, w int32) bool {
		if w < 1 || w > 10 {
			t.Errorf("weight %d out of range", w)
		}
		found := false
		wg.InNeighbors(d, func(s uint32, w2 int32) bool {
			if s == 0 {
				found = w2 == w
				return false
			}
			return true
		})
		if !found {
			t.Errorf("transposed weight for 0->%d inconsistent", d)
		}
		return true
	})
	// Original is untouched.
	if g.Weighted() {
		t.Error("AddWeights mutated the receiver")
	}
}

func TestHashWeightSymmetric(t *testing.T) {
	f := HashWeight(100)
	for _, pair := range [][2]uint32{{1, 2}, {0, 7}, {100, 3}} {
		a := f(pair[0], pair[1], 0)
		b := f(pair[1], pair[0], 0)
		if a != b {
			t.Errorf("HashWeight asymmetric for %v: %d vs %d", pair, a, b)
		}
		if a < 1 || a > 100 {
			t.Errorf("HashWeight out of range: %d", a)
		}
	}
}

func TestStats(t *testing.T) {
	g := diamond(t, false)
	s := ComputeStats(g)
	if s.Vertices != 4 || s.Edges != 4 {
		t.Errorf("stats sizes wrong: %+v", s)
	}
	if s.MaxOutDeg != 2 || s.MaxInDeg != 2 {
		t.Errorf("stats degrees wrong: %+v", s)
	}
	if s.ZeroDegree != 1 { // vertex 3
		t.Errorf("ZeroDegree = %d, want 1", s.ZeroDegree)
	}
	if s.SelfLoops != 0 {
		t.Errorf("SelfLoops = %d", s.SelfLoops)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	// Claim symmetric but provide a one-way edge.
	g, err := FromCSR([]int64{0, 1, 1}, []uint32{1}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g); err == nil {
		t.Error("Validate accepted an asymmetric 'symmetric' graph")
	}
}
