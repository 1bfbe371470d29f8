package algo_test

import (
	"context"
	"errors"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/seq"
	"ligra/internal/viewtest"
)

// TestTriangleCountMatchesSequential: the one kernel equals the sequential
// oracle on every representation — rows read as slices (heap, snapshots
// over it) and through the neighbor iterator (compressed, mmap, a snapshot
// over compressed) — under a one-worker lease and with four workers, each
// with its own mark vector. K40 and the rMat have forward rows of 16 and
// more (K40's vertex 0 outranks nobody and lists all 39 others), so they
// count through the mark vector; the low-degree inputs merge.
func TestTriangleCountMatchesSequential(t *testing.T) {
	gs := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs[name] = g
	}
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 42)
	add("rmat", g, err)
	g, err = gen.Complete(40)
	add("k40", g, err)
	g, err = gen.Grid3D(7)
	add("grid3d", g, err)
	g, err = gen.RandomLocal(600, 5, 64, 2)
	add("randlocal", g, err)
	g, err = gen.ErdosRenyi(300, 500, 3)
	add("er-sparse", g, err)

	for gname, g := range gs {
		want := seq.TriangleCount(g)
		if (gname == "rmat" || gname == "k40") && want == 0 {
			t.Fatalf("%s: degenerate input: no triangles", gname)
		}
		for vname, v := range viewtest.Matrix(t, g, viewtest.NetZero(g)...) {
			for _, procs := range []int{1, 4} {
				got, err := algo.TriangleCountCtx(parallel.WithProcs(nil, procs), v)
				if err != nil {
					t.Fatalf("%s/%s/procs=%d: %v", gname, vname, procs, err)
				}
				if got != want {
					t.Errorf("%s/%s/procs=%d: TriangleCount = %d, want %d", gname, vname, procs, got, want)
				}
			}
		}
	}
}

func TestTriangleCountCancelled(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var re *algo.RoundError
	if _, err := algo.TriangleCountCtx(ctx, g); !errors.Is(err, context.Canceled) || !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *RoundError wrapping context.Canceled", err)
	}
}

// panicView panics during neighbor iteration; it is not a graph.RowView,
// so the orientation pass takes the iterator path and must contain it.
type panicView struct{ graph.View }

func (p panicView) OutNeighbors(v uint32, fn func(uint32, int32) bool) { panic("boom out") }

func TestTriangleCountPanicContained(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	var pe *parallel.PanicError
	if _, err := algo.TriangleCountCtx(nil, panicView{g}); !errors.As(err, &pe) || pe.Value != "boom out" {
		t.Fatalf("err = %v, want a *parallel.PanicError carrying the view's panic", err)
	}
}
