package core

import (
	"context"
	"errors"
	"testing"

	"ligra/internal/graph"
)

// TestSeqBypassEquivalence runs the same sparse round with the bypass on
// (default) and off (SeqCutoff: -1) and demands identical output plus a
// SeqRounds increment only on the bypassed run. The test graph is tiny,
// so |U| + outDegrees(U) is far below DefaultSeqCutoff and every round
// qualifies — but the default |E|/20 threshold is 0 on 7 edges, which
// would send every Auto round dense, so the tests raise it explicitly to
// keep the rounds on the sparse (bypassable) side of the heuristic.
func TestSeqBypassEquivalence(t *testing.T) {
	g := testGraph(t)
	for _, opts := range []Options{
		{Threshold: 100},
		{Threshold: 100, RemoveDuplicates: true},
		{Threshold: 100, NoOutput: true},
	} {
		u := NewSparse(6, []uint32{0, 2, 3})
		f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool { return true }}

		before := SnapshotStats()
		seqOut := EdgeMap(g, u, f, opts)
		d := SnapshotStats().Sub(before)
		if d.SeqRounds != 1 || d.Sparse != 1 {
			t.Fatalf("opts=%+v: seq_rounds=%d sparse=%d, want 1/1", opts, d.SeqRounds, d.Sparse)
		}

		noBypass := opts
		noBypass.SeqCutoff = -1
		u2 := NewSparse(6, []uint32{0, 2, 3})
		before = SnapshotStats()
		parOut := EdgeMap(g, u2, f, noBypass)
		d = SnapshotStats().Sub(before)
		if d.SeqRounds != 0 || d.Sparse != 1 {
			t.Fatalf("opts=%+v SeqCutoff=-1: seq_rounds=%d sparse=%d, want 0/1", opts, d.SeqRounds, d.Sparse)
		}

		got, want := sortedIDs(seqOut), sortedIDs(parOut)
		if len(got) != len(want) {
			t.Fatalf("opts=%+v: bypass output %v, parallel output %v", opts, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("opts=%+v: bypass output %v, parallel output %v", opts, got, want)
			}
		}
	}
}

// TestSeqBypassPreservesEdgeOrderAndUpdateFallback checks the sequential
// path applies edges in frontier order through the plain Update function
// (no UpdateAtomic needed: the path is single-goroutine).
func TestSeqBypassPreservesEdgeOrderAndUpdateFallback(t *testing.T) {
	g := testGraph(t)
	u := NewSparse(6, []uint32{2, 0})
	var applied [][2]uint32
	f := EdgeFuncs{Update: func(s, d uint32, _ int32) bool {
		applied = append(applied, [2]uint32{s, d})
		return true
	}}
	before := SnapshotStats()
	out := EdgeMap(g, u, f, Options{Threshold: 100})
	if d := SnapshotStats().Sub(before); d.SeqRounds != 1 {
		t.Fatalf("seq_rounds=%d, want 1 (bypass did not engage)", d.SeqRounds)
	}
	// Frontier order {2, 0}: 2->3, 2->4, then 0->1, 0->2.
	want := [][2]uint32{{2, 3}, {2, 4}, {0, 1}, {0, 2}}
	if len(applied) != len(want) {
		t.Fatalf("applied %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("applied %v, want %v", applied, want)
		}
	}
	got := sortedIDs(out)
	wantOut := []uint32{1, 2, 3, 4}
	for i := range wantOut {
		if got[i] != wantOut[i] {
			t.Fatalf("output %v, want %v", got, wantOut)
		}
	}
}

// TestSeqBypassNeverOnDense proves the bypass only applies to rounds the
// heuristic (or the caller) already sends sparse: ForceDense rounds keep
// the dense traversal and record no SeqRounds.
func TestSeqBypassNeverOnDense(t *testing.T) {
	g := testGraph(t)
	u := NewSparse(6, []uint32{0, 3})
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool { return true }}
	before := SnapshotStats()
	EdgeMap(g, u, f, Options{Mode: ForceDense})
	d := SnapshotStats().Sub(before)
	if d.SeqRounds != 0 || d.Dense != 1 {
		t.Errorf("ForceDense round: seq_rounds=%d dense=%d, want 0/1", d.SeqRounds, d.Dense)
	}
}

// TestSeqBypassCancellation checks the sequential path still observes a
// pre-cancelled context.
func TestSeqBypassCancellation(t *testing.T) {
	g := testGraph(t)
	u := NewSparse(6, []uint32{0})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool { return true }}
	_, err := EdgeMapCtx(ctx, g, u, f, Options{Threshold: 100})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

// TestSeqBypassPanicContainment checks an update panic on the sequential
// path surfaces through EdgeMapCtx as an error, like the parallel paths.
func TestSeqBypassPanicContainment(t *testing.T) {
	g := testGraph(t)
	u := NewSparse(6, []uint32{0})
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool { panic("seq update panic") }}
	before := SnapshotStats()
	_, err := EdgeMapCtx(context.Background(), g, u, f, Options{Threshold: 100})
	if err == nil {
		t.Fatal("panic on the sequential path was not contained")
	}
	if d := SnapshotStats().Sub(before); d.SeqRounds != 0 {
		t.Errorf("failed round recorded seq_rounds=%d, want 0", d.SeqRounds)
	}
}

// TestSeqBypassRespectsCustomCutoff checks Options.SeqCutoff semantics:
// a positive cutoff below the round size disables the bypass for that
// round, and a generous one enables it on larger frontiers.
func TestSeqBypassRespectsCustomCutoff(t *testing.T) {
	// A star graph: vertex 0 points at 1..128, so a {0} frontier weighs
	// 1 + 128 = 129.
	edges := make([]graph.Edge, 0, 128)
	for d := uint32(1); d <= 128; d++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: d})
	}
	g, err := graph.FromEdges(129, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool { return true }}

	for _, tc := range []struct {
		cutoff   int64
		wantSeq  int64
		wantDesc string
	}{
		{cutoff: 64, wantSeq: 0, wantDesc: "round weighs 129 > cutoff 64"},
		{cutoff: 256, wantSeq: 1, wantDesc: "round weighs 129 <= cutoff 256"},
	} {
		u := NewSparse(129, []uint32{0})
		before := SnapshotStats()
		out := EdgeMap(g, u, f, Options{Mode: ForceSparse, SeqCutoff: tc.cutoff})
		if d := SnapshotStats().Sub(before); d.SeqRounds != tc.wantSeq {
			t.Errorf("cutoff=%d: seq_rounds=%d, want %d (%s)",
				tc.cutoff, d.SeqRounds, tc.wantSeq, tc.wantDesc)
		}
		if got := sortedIDs(out); len(got) != 128 || got[0] != 1 || got[127] != 128 {
			t.Errorf("cutoff=%d: output size %d, want all 128 leaves", tc.cutoff, len(got))
		}
	}
}
