// Cross-backend property tests: the kernel must be bit-identical to its
// edgeMap realization on every view backend (heap CSR, compressed, mmap,
// delta-store snapshot). The tests live in package spmv_test because the
// edgeMap oracles are in internal/algo, which itself imports internal/spmv
// for backend dispatch.
package spmv_test

import (
	"context"
	"errors"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/spmv"
	"ligra/internal/viewtest"
)

// testGraphs returns the heap CSR inputs the property matrix is built
// over: a scale-11 rMat (skewed, dense-leaning, symmetric) and a 3-D grid
// (uniform degree, high diameter, symmetric).
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, err := gen.RMAT(11, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	grid, err := gen.Grid3D(13)
	if err != nil {
		t.Fatalf("grid3d: %v", err)
	}
	return map[string]*graph.Graph{"rmat": rmat, "grid": grid}
}

// viewMatrix builds every backend view of g; the delta snapshot has one
// applied update batch, so the overlay path, not just the base, is
// exercised.
func viewMatrix(t *testing.T, g *graph.Graph) map[string]graph.View {
	t.Helper()
	n := uint32(g.NumVertices())
	ops := []delta.EdgeOp{
		{Src: 1, Dst: n - 2},
		{Src: 3, Dst: n - 5},
		{Src: 2, Dst: n - 1},
	}
	// Delete one existing edge so the snapshot is not purely additive.
	g.OutNeighbors(0, func(d uint32, _ int32) bool {
		ops = append(ops, delta.EdgeOp{Src: 0, Dst: d, Del: true})
		return false
	})
	return viewtest.Matrix(t, g, ops)
}

func TestBFSLevelsBitIdentical(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for vname, v := range viewMatrix(t, g) {
			want, err := algo.BFSLevelsCtx(nil, v, 0, core.Options{})
			if err != nil {
				t.Fatalf("%s/%s: edgemap oracle: %v", gname, vname, err)
			}
			for mname, mode := range map[string]core.Mode{
				"auto": core.Auto, "push": core.ForceSparse, "pull": core.ForceDense,
			} {
				res, err := spmv.BFSLevels(nil, v, 0, spmv.BFSOptions{Mode: mode})
				if err != nil {
					t.Fatalf("%s/%s/%s: spmv: %v", gname, vname, mname, err)
				}
				for i := range want {
					if res.Levels[i] != want[i] {
						t.Fatalf("%s/%s/%s: level[%d] = %d, edgemap %d",
							gname, vname, mname, i, res.Levels[i], want[i])
					}
				}
			}
			// Rounds/Visited must match the edgeMap runner's reporting.
			ref, err := algo.BFSCtx(nil, v, 0, core.Options{})
			if err != nil {
				t.Fatalf("%s/%s: bfs oracle: %v", gname, vname, err)
			}
			res, err := spmv.BFSLevels(nil, v, 0, spmv.BFSOptions{})
			if err != nil {
				t.Fatalf("%s/%s: spmv: %v", gname, vname, err)
			}
			if res.Rounds != ref.Rounds || res.Visited != ref.Visited {
				t.Fatalf("%s/%s: rounds/visited = %d/%d, edgemap %d/%d",
					gname, vname, res.Rounds, res.Visited, ref.Rounds, ref.Visited)
			}
		}
	}
}

// TestBFSDirected exercises the transpose arrays: on a directed graph the
// pull realization gathers over in-edges that are distinct from out-edges.
func TestBFSDirected(t *testing.T) {
	g, err := gen.RMATDirected(10, 8, gen.PBBSRMAT, 7)
	if err != nil {
		t.Fatalf("rmat directed: %v", err)
	}
	want, err := algo.BFSLevelsCtx(nil, g, 0, core.Options{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for mname, mode := range map[string]core.Mode{
		"auto": core.Auto, "push": core.ForceSparse, "pull": core.ForceDense,
	} {
		res, err := spmv.BFSLevels(nil, g, 0, spmv.BFSOptions{Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mname, err)
		}
		for i := range want {
			if res.Levels[i] != want[i] {
				t.Fatalf("%s: level[%d] = %d, edgemap %d", mname, i, res.Levels[i], want[i])
			}
		}
	}
}

func TestCancelledContext(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := spmv.BFSLevels(ctx, g, 0, spmv.BFSOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("bfs: err = %v, want context.Canceled", err)
	}
}

// panicView panics during neighbor iteration; it is not a *graph.Graph, so
// the kernels take the iterator fallback and must contain the panic.
type panicView struct{ graph.View }

func (p panicView) OutNeighbors(v uint32, fn func(uint32, int32) bool) {
	panic("boom out")
}

func (p panicView) InNeighbors(v uint32, fn func(uint32, int32) bool) {
	panic("boom in")
}

func TestPanicContainment(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	v := panicView{g}

	var pe *parallel.PanicError
	if _, err := spmv.BFSLevels(nil, v, 0, spmv.BFSOptions{Mode: core.ForceSparse}); !errors.As(err, &pe) {
		t.Fatalf("bfs push: err = %v, want *parallel.PanicError", err)
	}
	if _, err := spmv.BFSLevels(nil, v, 0, spmv.BFSOptions{Mode: core.ForceDense}); !errors.As(err, &pe) {
		t.Fatalf("bfs pull: err = %v, want *parallel.PanicError", err)
	}
}

// TestTraversalStatsRecorded checks the kernels feed the shared
// TraversalStats counters, so both backends are observable through the
// same /metrics surface.
func TestTraversalStatsRecorded(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	before := core.SnapshotStats()
	res, err := spmv.BFSLevels(nil, g, 0, spmv.BFSOptions{})
	if err != nil {
		t.Fatalf("bfs: %v", err)
	}
	d := core.SnapshotStats().Sub(before)
	if int(d.Calls) < res.Rounds {
		t.Fatalf("calls delta = %d, want >= %d bfs rounds", d.Calls, res.Rounds)
	}
	if d.Sparse+d.Dense+d.DenseForward != d.Calls {
		t.Fatalf("representation split %d+%d+%d != calls %d", d.Sparse, d.Dense, d.DenseForward, d.Calls)
	}
	if d.EdgesScanned == 0 {
		t.Fatalf("no edges recorded")
	}
}

// TestProcsLease checks the kernels honor a per-ctx proc cap (they must
// not outrun a governor lease).
func TestProcsLease(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	ctx := parallel.WithProcs(context.Background(), 1)
	want, err := algo.BFSLevelsCtx(nil, g, 0, core.Options{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	res, err := spmv.BFSLevels(ctx, g, 0, spmv.BFSOptions{})
	if err != nil {
		t.Fatalf("bfs: %v", err)
	}
	for i := range want {
		if res.Levels[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, res.Levels[i], want[i])
		}
	}
}
