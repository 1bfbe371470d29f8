package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// ringGraph is v -> v+1, v+2 (mod n): every frontier of k vertices weighs
// exactly 3k, so a test picks the side of smallRoundWork by frontier size.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, 2*n)
	for v := 0; v < n; v++ {
		edges = append(edges,
			graph.Edge{Src: uint32(v), Dst: uint32((v + 1) % n)},
			graph.Edge{Src: uint32(v), Dst: uint32((v + 2) % n)})
	}
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSeqBypassEquivalence runs the one sparse traversal on both sides of
// smallRoundWork — a frontier that weighs 300 and one that weighs 3000,
// both forced sparse — and demands the same output contract from each:
// every success in frontier edge order, deduplicated on request, nothing
// under NoOutput. Only the small round may count in SeqRounds, and it must
// reach the scheduler as an inline run, never as a dispatch; the large one
// is chunked and dispatched (TestMain sets four workers). The graph is big
// enough that |E|/20 exceeds both weights, so the degree scan is exact.
func TestSeqBypassEquivalence(t *testing.T) {
	const n = 1 << 15
	g := ringGraph(t, n)
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool { return true }}
	for _, opts := range []Options{
		{Mode: ForceSparse},
		{Mode: ForceSparse, RemoveDuplicates: true},
		{Mode: ForceSparse, NoOutput: true},
	} {
		for _, tc := range []struct {
			size    int
			wantSeq int64
		}{{100, 1}, {1000, 0}} {
			ids := make([]uint32, tc.size)
			var want []uint32
			seen := map[uint32]bool{}
			for i := range ids {
				ids[i] = uint32(i)
				for _, d := range []uint32{uint32(i+1) % n, uint32(i+2) % n} {
					if opts.NoOutput || (opts.RemoveDuplicates && seen[d]) {
						continue
					}
					seen[d] = true
					want = append(want, d)
				}
			}
			before, schedBefore := SnapshotStats(), parallel.SchedulerSnapshot()
			out := EdgeMap(g, NewSparse(n, ids), f, opts)
			d := SnapshotStats().Sub(before)
			sched := parallel.SchedulerSnapshot().Sub(schedBefore)
			if d.SeqRounds != tc.wantSeq || d.Sparse != 1 {
				t.Fatalf("opts=%+v |U|=%d: seq_rounds=%d sparse=%d, want %d/1", opts, tc.size, d.SeqRounds, d.Sparse, tc.wantSeq)
			}
			if small := tc.wantSeq == 1; small != (sched.Dispatches == 0) {
				t.Fatalf("opts=%+v |U|=%d: %d dispatches, %d inline runs", opts, tc.size, sched.Dispatches, sched.InlineRuns)
			}
			if got := out.ToSparse(); !slices.Equal(got, want) {
				t.Fatalf("opts=%+v |U|=%d: output (%d ids) differs from the %d expected in edge order", opts, tc.size, len(got), len(want))
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
