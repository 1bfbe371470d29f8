package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/faultinject"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/viewtest"
)

// rowState is order-sensitive per-vertex state: a rolling hash of the
// (source, weight) pairs applied to a vertex, and how many there were. Any
// difference in which frontier in-edges a dense round applies to d, in
// which order, or where it stops, changes hash[d] or count[d].
type rowState struct {
	hash  []uint64
	count []int32
}

func newRowState(n int) *rowState {
	return &rowState{hash: make([]uint64, n), count: make([]int32, n)}
}

// funcs is a per-edge EdgeFuncs over st: Cond drops every fifth vertex
// outright and stops a row after limit updates (the mid-row exit), and an
// update reports a hit for a third of the edges.
func (st *rowState) funcs(limit int32) core.EdgeFuncs {
	return core.EdgeFuncs{
		Update: func(s, d uint32, w int32) bool {
			st.hash[d] = st.hash[d]*1099511628211 + uint64(s)<<8 + uint64(w)
			st.count[d]++
			return (s+d)%3 == 0
		},
		Cond: func(d uint32) bool { return d%5 != 4 && st.count[d] < limit },
	}
}

// withDerivedPullRow adds the PullRow that follows mechanically from
// Update/Cond: the contract the hand-written kernels in internal/algo are
// held to.
func withDerivedPullRow(f core.EdgeFuncs) core.EdgeFuncs {
	update, cond := f.Update, f.Cond
	f.PullRow = func(d uint32, srcs []uint32, wts []int32, frontier []uint64) bool {
		hit := false
		for j, s := range srcs {
			if !core.InFrontier(frontier, s) {
				continue
			}
			w := int32(1)
			if wts != nil {
				w = wts[j]
			}
			if update(s, d, w) {
				hit = true
			}
			if !cond(d) {
				break
			}
		}
		return hit
	}
	return f
}

// oracleDense applies f the way edgeMapDense is specified to, one vertex
// at a time through the view's iterator, and returns the output set.
func oracleDense(g graph.View, u *core.VertexSubset, f core.EdgeFuncs) []bool {
	out := make([]bool, g.NumVertices())
	for d := uint32(0); int(d) < g.NumVertices(); d++ {
		if !f.Cond(d) {
			continue
		}
		g.InNeighbors(d, func(s uint32, w int32) bool {
			if !u.Contains(s) {
				return true
			}
			if f.Update(s, d, w) {
				out[d] = true
			}
			return f.Cond(d)
		})
	}
	return out
}

func randomWeighted(t *testing.T, rng *rand.Rand, n, m int, symmetric bool) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: int32(rng.Intn(100) + 1)}
	}
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{
		Symmetrize: symmetric, RemoveSelfLoops: true, RemoveDuplicates: true, Weighted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rowViews is g behind every representation the dense driver fetches rows
// from, the snapshot after a batch of random inserts and deletes.
func rowViews(t *testing.T, rng *rand.Rand, g *graph.Graph) map[string]graph.View {
	t.Helper()
	n := g.NumVertices()
	var ops []delta.EdgeOp
	for i := 0; i < 24; i++ {
		ops = append(ops, delta.EdgeOp{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: int32(rng.Intn(100) + 1)})
	}
	for v := uint32(0); int(v) < n && len(ops) < 32; v++ {
		g.OutNeighbors(v, func(d uint32, _ int32) bool {
			ops = append(ops, delta.EdgeOp{Src: v, Dst: d, Del: true})
			return false
		})
	}
	return viewtest.Matrix(t, g, ops)
}

// TestPullRowMatchesPerEdge: on every representation, worker count and
// frontier shape, a dense round through a derived PullRow leaves the same
// output subset and per-vertex state as the per-edge path, and both match
// a sequential reading of the edgeMapDense contract.
func TestPullRowMatchesPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(400)
		g := randomWeighted(t, rng, n, n*(1+rng.Intn(8)), trial%2 == 0)
		var partial []uint32
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				partial = append(partial, uint32(v))
			}
		}
		frontiers := map[string]*core.VertexSubset{
			"empty":   core.NewEmpty(n),
			"single":  core.NewSingle(n, uint32(rng.Intn(n))),
			"partial": core.NewSparse(n, partial),
			"full":    core.NewAll(n),
		}
		limit := int32(1 + rng.Intn(6))
		for vname, v := range rowViews(t, rng, g) {
			for fname, u := range frontiers {
				want := newRowState(n)
				wantOut := oracleDense(v, u, want.funcs(limit))
				for _, procs := range []int{1, 4} {
					for _, row := range []bool{false, true} {
						name := fmt.Sprintf("trial %d %s/%s procs=%d row=%v", trial, vname, fname, procs, row)
						st := newRowState(n)
						f := st.funcs(limit)
						if row {
							f = withDerivedPullRow(f)
						}
						out, err := core.EdgeMapCtx(nil, v, u, f, core.Options{Mode: core.ForceDense, Procs: procs})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for d := 0; d < n; d++ {
							if st.hash[d] != want.hash[d] || st.count[d] != want.count[d] {
								t.Fatalf("%s: vertex %d state (%x, %d), want (%x, %d)",
									name, d, st.hash[d], st.count[d], want.hash[d], want.count[d])
							}
							if out.Contains(uint32(d)) != wantOut[d] {
								t.Fatalf("%s: vertex %d in output = %v, want %v", name, d, !wantOut[d], wantOut[d])
							}
						}
					}
				}
			}
		}
	}
}

// TestPullRowNoOutputAndEarlyExitViews pins the two driver decisions a
// kernel cannot see: NoOutput drops its verdicts, and under DenseEarlyExit
// a view with rows (raw CSR, and a delta snapshot over it, shallow, deep or
// compacted) still runs the kernel on every row, while a view whose rows
// must be decoded (compressed, mmap, a snapshot over either) keeps the
// lazy per-edge path (UpdateAtomic) rather than decoding whole rows for a
// kernel that would leave them at once.
func TestPullRowNoOutputAndEarlyExitViews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomWeighted(t, rng, 200, 1600, true)
	n := g.NumVertices()
	all := core.NewAll(n)
	earlyExitRows := map[string]int{
		"heap": n, "snapshot": n, "snapshot-deep": n, "snapshot-compacted": n,
		"compressed": 0, "mmap": 0, "snapshot-compressed": 0,
	}
	views := rowViews(t, rng, g)
	if len(views) != len(earlyExitRows) {
		t.Fatalf("view matrix has %d views, routing table %d", len(views), len(earlyExitRows))
	}
	for vname, v := range views {
		if _, hasRows := v.(graph.RowView); hasRows != (earlyExitRows[vname] == n) {
			t.Errorf("%s: graph.RowView = %v", vname, hasRows)
		}
		rows := 0
		f := core.EdgeFuncs{
			UpdateAtomic: func(_, _ uint32, _ int32) bool { return true },
			PullRow: func(_ uint32, _ []uint32, _ []int32, frontier []uint64) bool {
				if frontier != nil {
					t.Errorf("%s: full frontier handed to the kernel as %d words, want nil", vname, len(frontier))
				}
				rows++
				return true
			},
		}
		out, err := core.EdgeMapCtx(nil, v, all, f, core.Options{Mode: core.ForceDense, NoOutput: true, Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rows != n || !out.IsEmpty() {
			t.Errorf("%s: kernel ran on %d of %d rows, NoOutput returned %d vertices", vname, rows, n, out.Size())
		}
		rows = 0
		if _, err := core.EdgeMapCtx(nil, v, all, f, core.Options{Mode: core.ForceDense, DenseEarlyExit: true, Procs: 1}); err != nil {
			t.Fatal(err)
		}
		if rows != earlyExitRows[vname] {
			t.Errorf("%s under DenseEarlyExit: kernel ran on %d rows, want %d", vname, rows, earlyExitRows[vname])
		}
	}
}

// TestPullRowFaultsBehaveLikePerEdge: cancellation, an injected chunk
// panic and a panic in user code surface from a dense round identically
// whether the round runs per-edge closures or a row kernel.
func TestPullRowFaultsBehaveLikePerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomWeighted(t, rng, 300, 2400, true)
	n := g.NumVertices()
	all := core.NewAll(n)
	dense := core.Options{Mode: core.ForceDense}

	// variants builds the same user code on both paths; body runs once per
	// applied edge (per-edge) or once per row (kernel).
	variants := func(body func()) map[string]core.EdgeFuncs {
		return map[string]core.EdgeFuncs{
			"per-edge": {Update: func(_, _ uint32, _ int32) bool { body(); return true }},
			"row": {
				UpdateAtomic: func(_, _ uint32, _ int32) bool { t.Error("push function called in a pull round"); return false },
				PullRow:      func(_ uint32, _ []uint32, _ []int32, _ []uint64) bool { body(); return true },
			},
		}
	}

	for name, f := range variants(func() { t.Error("user code ran under a cancelled context") }) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if out, err := core.EdgeMapCtx(ctx, g, all, f, dense); !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("%s pre-cancelled: out=%v err=%v, want nil, context.Canceled", name, out, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, f := range variants(cancel) {
		if _, err := core.EdgeMapCtx(ctx, g, all, f, dense); !errors.Is(err, context.Canceled) {
			t.Errorf("%s cancelled mid-round: err=%v, want context.Canceled", name, err)
		}
	}

	var pe *parallel.PanicError
	for name, f := range variants(func() {}) {
		disarm := faultinject.PanicOnChunk(1, "injected chunk fault")
		_, err := core.EdgeMapCtx(context.Background(), g, all, f, dense)
		disarm()
		if !errors.As(err, &pe) || pe.Value != "injected chunk fault" {
			t.Errorf("%s injected chunk panic: err=%v, want *parallel.PanicError", name, err)
		}
	}

	for name, f := range variants(func() { panic("bad kernel") }) {
		if _, err := core.EdgeMapCtx(context.Background(), g, all, f, dense); !errors.As(err, &pe) || pe.Value != "bad kernel" {
			t.Errorf("%s user panic: err=%v, want *parallel.PanicError", name, err)
		}
		func() {
			defer func() {
				if _, ok := recover().(*parallel.PanicError); !ok {
					t.Errorf("%s user panic through EdgeMap: not a *parallel.PanicError", name)
				}
			}()
			core.EdgeMap(g, all, f, dense)
		}()
	}
}
