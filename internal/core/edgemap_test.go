package core

import (
	"context"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ligra/internal/graph"
)

// testGraph builds a small directed graph:
//
//	0 -> 1, 2
//	1 -> 3
//	2 -> 3, 4
//	3 -> 5
//	4 -> 5
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3},
		{Src: 2, Dst: 3}, {Src: 2, Dst: 4}, {Src: 3, Dst: 5}, {Src: 4, Dst: 5},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// collectEdges runs an EdgeMap that records every (s, d) pair it applies.
func collectEdges(g graph.View, u *VertexSubset, opts Options) (map[[2]uint32]int, *VertexSubset) {
	counts := make(map[[2]uint32]int)
	var mu chanMutex
	f := EdgeFuncs{
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			mu.Lock()
			counts[[2]uint32{s, d}]++
			mu.Unlock()
			return true
		},
	}
	opts.RemoveDuplicates = true
	out := edgeMap(g, u, f, opts)
	return counts, out
}

// chanMutex is a tiny mutex (avoids importing sync in multiple spots).
type chanMutex struct{ ch chan struct{} }

func (m *chanMutex) Lock() {
	if m.ch == nil {
		m.ch = make(chan struct{}, 1)
	}
	m.ch <- struct{}{}
}
func (m *chanMutex) Unlock() { <-m.ch }

// edgeMap runs one round with nothing to observe, panicking on an error.
func edgeMap(g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) *VertexSubset {
	return must(EdgeMap(bg, g, u, f, opts))
}

// sparseIDs is vs's sparse form, panicking on an error.
func sparseIDs(vs *VertexSubset) []uint32 { return must(vs.ToSparse(bg)) }

func sortedIDs(vs *VertexSubset) []uint32 {
	ids := append([]uint32(nil), sparseIDs(vs)...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestEdgeMapAppliesFrontierEdges(t *testing.T) {
	g := testGraph(t)
	for _, mode := range []Mode{Sparse, Pull} {
		u := NewSparse(6, []uint32{0, 3})
		counts, out := collectEdges(g, u, Options{Mode: mode})
		wantEdges := [][2]uint32{{0, 1}, {0, 2}, {3, 5}}
		if len(counts) != len(wantEdges) {
			t.Fatalf("mode=%v: %d distinct edges, want %d (%v)", mode, len(counts), len(wantEdges), counts)
		}
		for _, e := range wantEdges {
			if counts[e] != 1 {
				t.Errorf("mode=%v: edge %v applied %d times", mode, e, counts[e])
			}
		}
		got := sortedIDs(out)
		want := []uint32{1, 2, 5}
		if len(got) != len(want) {
			t.Fatalf("mode=%v: output = %v, want %v", mode, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mode=%v: output = %v, want %v", mode, got, want)
			}
		}
	}
}

func TestEdgeMapDenseForwardMatches(t *testing.T) {
	g := testGraph(t)
	u := NewSparse(6, []uint32{0, 3})
	counts, out := collectEdges(g, u, Options{Mode: Forward})
	if len(counts) != 3 {
		t.Fatalf("dense-forward applied %d distinct edges, want 3", len(counts))
	}
	got := sortedIDs(out)
	want := []uint32{1, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dense-forward output = %v, want %v", got, want)
		}
	}
}

func TestEdgeMapCondFilters(t *testing.T) {
	g := testGraph(t)
	for _, mode := range []Mode{Sparse, Pull} {
		u := NewSparse(6, []uint32{0})
		f := EdgeFuncs{
			UpdateAtomic: func(_, _ uint32, _ int32) bool { return true },
			Cond:         func(d uint32) bool { return d != 2 },
		}
		out := edgeMap(g, u, f, Options{Mode: mode})
		if out.Contains(2) || !out.Contains(1) {
			t.Errorf("mode=%v: Cond not applied: %v", mode, sortedIDs(out))
		}
	}
}

func TestEdgeMapUpdateFalseExcludesFromOutput(t *testing.T) {
	g := testGraph(t)
	u := NewSparse(6, []uint32{0})
	f := EdgeFuncs{
		UpdateAtomic: func(_, d uint32, _ int32) bool { return d == 1 },
	}
	for _, mode := range []Mode{Sparse, Pull} {
		out := edgeMap(g, u, f, Options{Mode: mode})
		if out.Size() != 1 || !out.Contains(1) {
			t.Errorf("mode=%v: output = %v, want {1}", mode, sortedIDs(out))
		}
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	g := testGraph(t)
	out := edgeMap(g, NewEmpty(6), EdgeFuncs{
		UpdateAtomic: func(_, _ uint32, _ int32) bool { t.Error("called"); return true },
	}, Options{})
	if !out.IsEmpty() {
		t.Error("nonempty output from empty frontier")
	}
}

func TestEdgeMapNoOutput(t *testing.T) {
	g := testGraph(t)
	var applied atomic.Int32
	f := EdgeFuncs{
		UpdateAtomic: func(_, _ uint32, _ int32) bool { applied.Add(1); return true },
	}
	for _, mode := range []Mode{Sparse, Pull} {
		applied.Store(0)
		out := edgeMap(g, NewSparse(6, []uint32{0}), f, Options{Mode: mode, NoOutput: true})
		if !out.IsEmpty() {
			t.Errorf("mode=%v: NoOutput returned nonempty subset", mode)
		}
		if applied.Load() != 2 {
			t.Errorf("mode=%v: %d updates, want 2", mode, applied.Load())
		}
	}
}

func TestEdgeMapDenseEarlyExit(t *testing.T) {
	// Vertex 3 has two in-edges (from 1 and 2). With a Cond that turns
	// false after the first update, the dense traversal must stop scanning
	// 3's in-edges after the first hit.
	g := testGraph(t)
	u := NewSparse(6, []uint32{1, 2})
	hits := make([]int32, 6)
	f := EdgeFuncs{
		Update: func(_, d uint32, _ int32) bool {
			hits[d]++
			return true
		},
		Cond: func(d uint32) bool { return hits[d] == 0 },
	}
	out := edgeMap(g, u, f, Options{Mode: Pull})
	if hits[3] != 1 {
		t.Errorf("vertex 3 updated %d times, want 1 (early exit)", hits[3])
	}
	if !out.Contains(3) || !out.Contains(4) {
		t.Errorf("output = %v", sortedIDs(out))
	}
}

func TestEdgeMapRemoveDuplicates(t *testing.T) {
	// Both 1 and 2 update 3 successfully; without dedup the sparse output
	// contains 3 twice.
	g := testGraph(t)
	f := EdgeFuncs{
		UpdateAtomic: func(_, _ uint32, _ int32) bool { return true },
	}
	u := NewSparse(6, []uint32{1, 2})
	noDedup := edgeMap(g, u, f, Options{Mode: Sparse})
	if len(sparseIDs(noDedup)) != 3 { // 3, 3, 4
		t.Errorf("expected raw duplicates, got %v", sparseIDs(noDedup))
	}
	dedup := edgeMap(g, NewSparse(6, []uint32{1, 2}), f, Options{Mode: Sparse, RemoveDuplicates: true})
	got := sortedIDs(dedup)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("dedup output = %v, want [3 4]", got)
	}
}

func TestEdgeMapAutoSwitches(t *testing.T) {
	g := testGraph(t) // m = 7, default threshold = 0
	f := EdgeFuncs{UpdateAtomic: func(_, _ uint32, _ int32) bool { return true }}
	tr := &Trace{}
	// Tiny graph: |U|+outdeg(U) > m/20 = 0 always, so Auto must go dense.
	edgeMap(g, NewSparse(6, []uint32{0}), f, Options{Trace: tr})
	if !tr.Entries[0].Dense {
		t.Error("Auto chose sparse despite exceeding threshold")
	}
	// With a huge threshold it must go sparse.
	edgeMap(g, NewSparse(6, []uint32{0}), f, Options{Threshold: 1000, Trace: tr})
	if tr.Entries[1].Dense {
		t.Error("Auto chose dense despite large threshold")
	}
	if tr.Entries[1].FrontierSize != 1 || tr.Entries[1].OutDegrees != 2 {
		t.Errorf("trace entry wrong: %+v", tr.Entries[1])
	}
}

// TestForcedModeRecorded: a forced round runs, traces and counts as its
// Mode, and the trace's Dense and DenseForward flags are read from it.
func TestForcedModeRecorded(t *testing.T) {
	g := testGraph(t)
	f := EdgeFuncs{UpdateAtomic: func(_, _ uint32, _ int32) bool { return true }}
	for _, mode := range []Mode{Sparse, Pull, Forward} {
		tr := &Trace{}
		before := SnapshotStats()
		edgeMap(g, NewSparse(6, []uint32{0}), f, Options{Mode: mode, Trace: tr})
		d := SnapshotStats().Sub(before)
		e := tr.Entries[0]
		if e.Mode != mode || e.Dense != (mode != Sparse) || e.DenseForward != (mode == Forward) {
			t.Errorf("%v: trace Mode=%v Dense=%t DenseForward=%t", mode, e.Mode, e.Dense, e.DenseForward)
		}
		var want [3]int64 // sparse, dense, dense-forward: Mode order
		want[mode-Sparse] = 1
		if got := [3]int64{d.Sparse, d.Dense, d.DenseForward}; got != want {
			t.Errorf("%v: sparse/dense/dense-forward counts %v, want %v", mode, got, want)
		}
	}
}

func TestEdgeMapWeightsPropagate(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 9}, {Src: 1, Dst: 2, Weight: 4},
	}, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Sparse, Pull} {
		var got atomic.Int32
		f := EdgeFuncs{UpdateAtomic: func(_, d uint32, w int32) bool {
			if d == 1 {
				got.Store(w)
			}
			return true
		}}
		edgeMap(g, NewSingle(3, 0), f, Options{Mode: mode})
		if got.Load() != 9 {
			t.Errorf("mode=%v: weight = %d, want 9", mode, got.Load())
		}
	}
}

func TestEdgeMapUniverseMismatchPanics(t *testing.T) {
	g := testGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	edgeMap(g, NewEmpty(5), EdgeFuncs{}, Options{})
}

// TestEdgeMapKernelOnlyFuncsRejected: a bundle with a row kernel for one
// direction only — a PullRows and no push update, or a PushRow and no pull
// update — used to run on that direction's rounds and nil-dereference in a
// worker on every other; it is refused by name whichever direction the
// round takes.
func TestEdgeMapKernelOnlyFuncsRejected(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	pullOnly := EdgeFuncs{PullRows: func(uint32, []int64, []uint32, []int32, []uint64) uint64 { return 1 }}
	pushOnly := EdgeFuncs{PushRow: func(_ uint32, _ []uint32, _ []int32, out []uint32) []uint32 { return out }}
	for _, tc := range []struct {
		name string
		f    EdgeFuncs
		u    *VertexSubset
		mode Mode
		want string
	}{
		{"sparse round", pullOnly, NewSingle(n, 0), Sparse, "no push kernel"},
		{"dense round", pullOnly, NewAll(n), Pull, "no push kernel"},
		{"push-only sparse round", pushOnly, NewSingle(n, 0), Sparse, "no pull kernel"},
		{"push-only dense round", pushOnly, NewAll(n), Pull, "no pull kernel"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: recovered %q, want the %q rejection", tc.name, msg, tc.want)
				}
			}()
			_, _ = EdgeMap(context.Background(), g, tc.u, tc.f, Options{Mode: tc.mode})
		}()
	}
}

func TestEdgeMapSymmetricGraphDense(t *testing.T) {
	// On a symmetric graph the dense pull uses out-edges as in-edges.
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
	}, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	f := EdgeFuncs{UpdateAtomic: func(_, _ uint32, _ int32) bool { return true }}
	out := edgeMap(g, NewSingle(4, 1), f, Options{Mode: Pull, RemoveDuplicates: true})
	got := sortedIDs(out)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("output = %v, want [0 2]", got)
	}
}
