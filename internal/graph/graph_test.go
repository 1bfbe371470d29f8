package graph

import (
	"math"
	"os"
	"runtime"
	"slices"
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
	outs, ws := g.OutRow(0, nil)
	if ws != nil {
		t.Errorf("unweighted graph yielded weights %v", ws)
	}
	if len(outs) != 2 || outs[0] != 1 || outs[1] != 2 {
		t.Errorf("out-neighbors of 0: %v", outs)
	}
	ins, _ := g.InRow(3, nil, math.MaxInt)
	if len(ins) != 2 || ins[0] != 1 || ins[1] != 2 {
		t.Errorf("in-neighbors of 3: %v", ins)
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	g := diamond(t, true)
	if !g.Weighted() {
		t.Fatal("weighted flag lost")
	}
	for _, tc := range []struct {
		s, d uint32
		w    int32
	}{{0, 1, 5}, {0, 2, 3}, {1, 3, 2}, {2, 3, 7}} {
		if got := edgeWeight(g, tc.s, tc.d); got != tc.w {
			t.Errorf("weight(%d->%d) = %d, want %d", tc.s, tc.d, got, tc.w)
		}
	}
	// Transposed weights must be consistent.
	_, inW := g.InRow(3, nil, math.MaxInt)
	if len(inW) != 2 || inW[0] != 2 || inW[1] != 7 {
		t.Errorf("in-weights of 3: %v", inW)
	}
}

// edgeWeight is the weight of s->d (1 on an unweighted graph), or -1
// when there is no such edge.
func edgeWeight(g *Graph, s, d uint32) int32 {
	ts, ws := g.OutRow(s, nil)
	if i := slices.Index(ts, d); i >= 0 {
		return WeightAt(ws, i)
	}
	return -1
}

// TestEarlyExitIteration: a pull kernel that stops early asks InRow for
// a prefix, and gets exactly the first max edges with their weights.
func TestEarlyExitIteration(t *testing.T) {
	g := diamond(t, true)
	for _, max := range []int{0, 1, 2, 3} {
		ts, ws := g.InRow(3, nil, max)
		if want := min(max, 2); len(ts) != want || len(ws) != want {
			t.Errorf("InRow(3, max=%d) = %v %v, want %d edges", max, ts, ws, want)
		}
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
	if w01 := edgeWeight(g, 0, 1); w01 != 4 {
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
	ts, ws := wg.OutRow(0, nil)
	for i, d := range ts {
		w := ws[i]
		if w < 1 || w > 10 {
			t.Errorf("weight %d out of range", w)
		}
		srcs, ws2 := wg.InRow(d, nil, math.MaxInt)
		if j := slices.Index(srcs, 0); j < 0 || ws2[j] != w {
			t.Errorf("transposed weight for 0->%d inconsistent", d)
		}
	}
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

// TestFromEdgesAllocsPerEdge pins what a build allocates: the symmetrized
// edge list and one radix scratch of its size shared by every sort pass
// (48 bytes per input edge), the weighted CSR arrays (16) and one
// per-block digit-count matrix for each of the three radix sorts, shared
// by that sort's passes (about 12 at this size), 76.5 in all.
// Every further transient copy of the edge list is one more allocation
// whose release depends on when the collector runs, which is what makes
// a build's peak memory vary from one process to the next.
func TestFromEdgesAllocsPerEdge(t *testing.T) {
	const n, m = 1 << 12, 1 << 17
	edges := make([]Edge, m)
	x := uint64(7)
	for i := range edges {
		x = x*6364136223846793005 + 1442695040888963407
		edges[i] = Edge{Src: uint32(x>>33) % n, Dst: uint32(x>>17) % n, Weight: int32(x>>50) + 1}
	}
	opts := BuildOptions{Symmetrize: true, RemoveSelfLoops: true, RemoveDuplicates: true, Weighted: true}
	if _, err := FromEdges(n, edges, opts); err != nil { // warm-up: the pool's workers
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := FromEdges(n, edges, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / m
	t.Logf("%d edges in, %d out: %.1f B allocated per input edge", m, g.NumEdges(), perEdge)
	if perEdge > 80 {
		t.Errorf("FromEdges allocated %.1f B per input edge, want <= 80", perEdge)
	}
}
