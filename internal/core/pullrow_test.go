package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// Update/Cond (and, under DenseEarlyExit, the stop after the first hit):
// the contract the hand-written kernels in internal/algo are held to.
func withDerivedPullRow(f core.EdgeFuncs, earlyExit bool) core.EdgeFuncs {
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
				if earlyExit {
					break
				}
			}
			if !cond(d) {
				break
			}
		}
		return hit
	}
	return f
}

// oracleDense applies f the way edgeMapDense is specified to, one edge
// at a time over the view's whole in-rows, and returns the output set.
func oracleDense(g graph.View, u *core.VertexSubset, f core.EdgeFuncs, earlyExit bool) []bool {
	out := make([]bool, g.NumVertices())
	var buf graph.Row
	for d := uint32(0); int(d) < g.NumVertices(); d++ {
		if !f.Cond(d) {
			continue
		}
		srcs, ws := g.InRow(d, &buf, math.MaxInt)
		for i, s := range srcs {
			if !u.Contains(s) {
				continue
			}
			if f.Update(s, d, graph.WeightAt(ws, i)) {
				out[d] = true
				if earlyExit {
					break
				}
			}
			if !f.Cond(d) {
				break
			}
		}
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
// from, the snapshots after a batch of random inserts and deletes, plus
// raw CSR behind the bare interface, whose rows edgeMap cannot slice.
func rowViews(t *testing.T, rng *rand.Rand, g *graph.Graph) map[string]graph.View {
	t.Helper()
	n := g.NumVertices()
	var ops []delta.EdgeOp
	for i := 0; i < 24; i++ {
		ops = append(ops, delta.EdgeOp{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: int32(rng.Intn(100) + 1)})
	}
	for v := uint32(0); int(v) < n && len(ops) < 32; v++ {
		if ts, _ := g.OutRow(v, nil); len(ts) > 0 {
			ops = append(ops, delta.EdgeOp{Src: v, Dst: ts[0], Del: true})
		}
	}
	views := viewtest.Matrix(t, g, ops)
	views["interface"] = struct{ graph.View }{g}
	return views
}

// TestPullRowMatchesPerEdge: on every representation, worker count,
// frontier shape and DenseEarlyExit setting, a dense round through a
// derived PullRow leaves the same output subset and per-vertex state as
// the default per-edge kernel over Update/Cond, and both match a
// sequential reading of the edgeMapDense contract.
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
				for _, early := range []bool{false, true} {
					want := newRowState(n)
					wantOut := oracleDense(v, u, want.funcs(limit), early)
					for _, procs := range []int{1, 4} {
						for _, row := range []bool{false, true} {
							name := fmt.Sprintf("trial %d %s/%s early=%v procs=%d row=%v", trial, vname, fname, early, procs, row)
							st := newRowState(n)
							f := st.funcs(limit)
							if row {
								f = withDerivedPullRow(f, early)
							}
							out, err := core.EdgeMap(nil, v, u, f, core.Options{Mode: core.Pull, DenseEarlyExit: early, Procs: procs})
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
}

// TestPullRowNoOutputAndEarlyExitViews pins what a kernel cannot see of the
// driver, on every view: NoOutput drops its verdicts, and under
// DenseEarlyExit a row longer than the prefix arrives in two pieces — the
// first DenseEarlyPrefix edges, then the rest only if the prefix call
// returned false — that together are the row, so a decoding view decodes
// past the prefix only for destinations the prefix did not settle. Raw
// CSR, which has nothing to decode, hands over every row whole.
func TestPullRowNoOutputAndEarlyExitViews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomWeighted(t, rng, 200, 1600, true)
	n := g.NumVertices()
	all := core.NewAll(n)
	for vname, v := range rowViews(t, rng, g) {
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
		out, err := core.EdgeMap(nil, v, all, f, core.Options{Mode: core.Pull, NoOutput: true, Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rows != n || !out.IsEmpty() {
			t.Errorf("%s: kernel ran on %d of %d rows, NoOutput returned %d vertices", vname, rows, n, out.Size())
		}

		for _, hit := range []bool{true, false} {
			// Per destination: the calls, the first call's length, and
			// every edge handed over, in order.
			type seen struct {
				calls, first int
				srcs         []uint32
				wts          []int32
			}
			got := make([]seen, n)
			f.PullRow = func(d uint32, srcs []uint32, wts []int32, _ []uint64) bool {
				s := &got[d]
				if s.calls == 0 {
					s.first = len(srcs)
				}
				s.calls++
				s.srcs, s.wts = append(s.srcs, srcs...), append(s.wts, wts...)
				return hit
			}
			if _, err := core.EdgeMap(nil, v, all, f, core.Options{Mode: core.Pull, DenseEarlyExit: true, Procs: 1}); err != nil {
				t.Fatal(err)
			}
			prefix := core.DenseEarlyPrefix
			if _, csr := v.(*graph.Graph); csr {
				prefix = math.MaxInt
			}
			long := 0
			var buf graph.Row
			for d := range got {
				row, wts := v.InRow(uint32(d), &buf, math.MaxInt)
				first, calls := min(len(row), prefix), 1
				if len(row) > core.DenseEarlyPrefix {
					long++
				}
				if len(row) > prefix && !hit {
					calls = 2
				}
				if hit {
					row, wts = row[:first], wts[:first]
				}
				s := got[d]
				if s.calls != calls || s.first != first || !slices.Equal(s.srcs, row) || !slices.Equal(s.wts, wts) {
					t.Fatalf("%s hit=%v: row %d handed over in %d calls (first %d edges) as %v %v, want %d calls (first %d) of %v %v",
						vname, hit, d, s.calls, s.first, s.srcs, s.wts, calls, first, row, wts)
				}
			}
			if long == 0 {
				t.Fatalf("%s: no row longer than the prefix", vname)
			}
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
	dense := core.Options{Mode: core.Pull}

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
		if out, err := core.EdgeMap(ctx, g, all, f, dense); !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("%s pre-cancelled: out=%v err=%v, want nil, context.Canceled", name, out, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, f := range variants(cancel) {
		if _, err := core.EdgeMap(ctx, g, all, f, dense); !errors.Is(err, context.Canceled) {
			t.Errorf("%s cancelled mid-round: err=%v, want context.Canceled", name, err)
		}
	}

	var pe *parallel.PanicError
	for name, f := range variants(func() {}) {
		disarm := faultinject.PanicOnChunk(1, "injected chunk fault")
		_, err := core.EdgeMap(context.Background(), g, all, f, dense)
		disarm()
		if !errors.As(err, &pe) || pe.Value != "injected chunk fault" {
			t.Errorf("%s injected chunk panic: err=%v, want *parallel.PanicError", name, err)
		}
	}

	for name, f := range variants(func() { panic("bad kernel") }) {
		if _, err := core.EdgeMap(context.Background(), g, all, f, dense); !errors.As(err, &pe) || pe.Value != "bad kernel" {
			t.Errorf("%s user panic: err=%v, want *parallel.PanicError", name, err)
		}
	}
}
