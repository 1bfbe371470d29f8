package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
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

// withDerivedPullRows adds the PullRows that follows mechanically from
// Update/Cond (and, under DenseEarlyExit, the stop after the first hit),
// testing Cond itself as a block kernel must: the contract the
// hand-written kernels in internal/algo are held to.
func withDerivedPullRows(f core.EdgeFuncs, earlyExit bool) core.EdgeFuncs {
	update, cond := f.Update, f.Cond
	f.PullRows = func(lo uint32, offs []int64, srcs []uint32, wts []int32, frontier []uint64) uint64 {
		var word uint64
		for i := range len(offs) - 1 {
			d := lo + uint32(i)
			if !cond(d) {
				continue
			}
			for j := offs[i]; j < offs[i+1]; j++ {
				s := srcs[j]
				if !core.InFrontier(frontier, s) {
					continue
				}
				if update(s, d, graph.WeightAt(wts, int(j))) {
					word |= 1 << uint(i)
					if earlyExit {
						break
					}
				}
				if !cond(d) {
					break
				}
			}
		}
		return word
	}
	return f
}

// blockMask is a block kernel's word with every destination's bit set.
func blockMask(offs []int64) uint64 {
	return ^uint64(0) >> (65 - len(offs))
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

// TestPullRowsMatchesPerEdge: on every representation, worker count,
// frontier shape and DenseEarlyExit setting, a dense round through a
// derived PullRows leaves the same output subset and per-vertex state as
// the default per-edge kernel over Update/Cond, and both match a
// sequential reading of the edgeMapDense contract.
func TestPullRowsMatchesPerEdge(t *testing.T) {
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
								f = withDerivedPullRows(f, early)
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

// TestPullRowsNoOutputAndEarlyExitViews pins what a kernel cannot see of
// the driver, on every view: NoOutput drops its verdicts, and under
// DenseEarlyExit a row longer than the prefix arrives in two pieces — the
// first DenseEarlyPrefix edges, then the rest only if the prefix call
// returned 0 — that together are the row, so a decoding view decodes past
// the prefix only for destinations the prefix did not settle. Raw CSR and
// an overlay over it, which have nothing to decode, hand over every row
// whole.
func TestPullRowsNoOutputAndEarlyExitViews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomWeighted(t, rng, 200, 1600, true)
	n := g.NumVertices()
	all := core.NewAll(n)
	for vname, v := range rowViews(t, rng, g) {
		rows := 0
		f := core.EdgeFuncs{
			UpdateAtomic: func(_, _ uint32, _ int32) bool { return true },
			PullRows: func(_ uint32, offs []int64, _ []uint32, _ []int32, frontier []uint64) uint64 {
				if frontier != nil {
					t.Errorf("%s: full frontier handed to the kernel as %d words, want nil", vname, len(frontier))
				}
				rows += len(offs) - 1
				return blockMask(offs)
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
			f.PullRows = func(lo uint32, offs []int64, srcs []uint32, wts []int32, _ []uint64) uint64 {
				for i := range len(offs) - 1 {
					s := &got[lo+uint32(i)]
					a, b := offs[i], offs[i+1]
					if s.calls == 0 {
						s.first = int(b - a)
					}
					s.calls++
					s.srcs, s.wts = append(s.srcs, srcs[a:b]...), append(s.wts, wts[a:b]...)
				}
				if hit {
					return blockMask(offs)
				}
				return 0
			}
			if _, err := core.EdgeMap(nil, v, all, f, core.Options{Mode: core.Pull, DenseEarlyExit: true, Procs: 1}); err != nil {
				t.Fatal(err)
			}
			prefix := core.DenseEarlyPrefix
			if inCSR(v) {
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

// patched is a delta overlay over a raw CSR, as a pull round reads it.
type patched interface {
	InBase() *graph.Graph
	InReplaced(lo uint32) (uint64, *[64]graph.Row)
}

// inCSR reports whether a pull round over v reads rows in place from a
// CSR's arrays: v is one, or an overlay over one.
func inCSR(v graph.View) bool {
	if _, ok := v.(*graph.Graph); ok {
		return true
	}
	p, ok := v.(patched)
	return ok && p.InBase() != nil
}

// TestPullRowsFaultsBehaveLikePerEdge: cancellation, an injected chunk
// panic and a panic in user code surface from a dense round identically
// whether the round runs per-edge closures or a block kernel.
func TestPullRowsFaultsBehaveLikePerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomWeighted(t, rng, 300, 2400, true)
	n := g.NumVertices()
	all := core.NewAll(n)
	dense := core.Options{Mode: core.Pull}

	// variants builds the same user code on both paths; body runs once per
	// applied edge (per-edge) or once per block (kernel).
	variants := func(body func()) map[string]core.EdgeFuncs {
		return map[string]core.EdgeFuncs{
			"per-edge": {Update: func(_, _ uint32, _ int32) bool { body(); return true }},
			"row": {
				UpdateAtomic: func(_, _ uint32, _ int32) bool { t.Error("push function called in a pull round"); return false },
				PullRows:     func(_ uint32, offs []int64, _ []uint32, _ []int32, _ []uint64) uint64 { body(); return blockMask(offs) },
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

// TestPullRowsOneCallPerWord: over a raw CSR a pull round calls the kernel
// once per 64-destination output word — ceil(n/64) calls, the last block
// short when 64 does not divide n — with the CSR's own in-offsets and
// in-edges, calls no Cond, and stores the words the kernel returns as the
// output.
func TestPullRowsOneCallPerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, n := range []int{1000, 50} {
		g := randomWeighted(t, rng, n, 4*n, false)
		inOffs, inEdges, inWts := g.InOffsets(), g.InEdges(), g.InWeights()
		for _, procs := range []int{1, 4} {
			var calls, conds atomic.Int64
			f := core.EdgeFuncs{
				UpdateAtomic: func(_, _ uint32, _ int32) bool { t.Error("push function called in a pull round"); return false },
				Cond:         func(uint32) bool { conds.Add(1); return true },
				PullRows: func(lo uint32, offs []int64, srcs []uint32, wts []int32, _ []uint64) uint64 {
					calls.Add(1)
					k := len(offs) - 1
					if lo%64 != 0 || k != min(64, n-int(lo)) {
						t.Errorf("n=%d procs=%d: block at %d of %d destinations", n, procs, lo, k)
						return 0
					}
					own := len(offs) == k+1 && &offs[0] == &inOffs[lo] &&
						len(srcs) == len(inEdges) && &srcs[0] == &inEdges[0] &&
						len(wts) == len(inWts) && &wts[0] == &inWts[0]
					if !own {
						t.Errorf("n=%d procs=%d: block at %d not handed the CSR's own arrays", n, procs, lo)
					}
					var word uint64
					for i := range k {
						if (lo+uint32(i))%3 == 0 {
							word |= 1 << uint(i)
						}
					}
					return word
				},
			}
			out, err := core.EdgeMap(nil, g, core.NewAll(n), f, core.Options{Mode: core.Pull, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64((n + 63) / 64); calls.Load() != want || conds.Load() != 0 {
				t.Errorf("n=%d procs=%d: %d kernel calls and %d Cond calls, want %d and 0", n, procs, calls.Load(), conds.Load(), want)
			}
			for d := 0; d < n; d++ {
				if out.Contains(uint32(d)) != (d%3 == 0) {
					t.Fatalf("n=%d procs=%d: vertex %d in output = %v", n, procs, d, out.Contains(uint32(d)))
				}
			}
			if want := (n + 2) / 3; out.Size() != want {
				t.Errorf("n=%d procs=%d: output has %d vertices, want %d", n, procs, out.Size(), want)
			}
		}
	}
}

// TestPullRowsOverlayRuns: over an overlay on a raw CSR a pull round hands
// each run of rows the overlay did not replace straight from the base's
// arrays, inside one output word and with no Cond call, and each replaced
// row, once its Cond held, as a block of one; the output is the bits the
// kernel returned.
func TestPullRowsOverlayRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := randomWeighted(t, rng, 1000, 4000, false)
	n := g.NumVertices()
	var ops []delta.EdgeOp
	for i := 0; i < 40; i++ {
		ops = append(ops, delta.EdgeOp{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: 1 + int32(rng.Intn(100))})
	}
	views := viewtest.Matrix(t, g, ops)
	keep := func(d uint32) bool { return d%7 != 3 }
	for _, vname := range []string{"snapshot", "snapshot-deep"} {
		v := views[vname]
		p := v.(patched)
		baseOffs, baseEdges := p.InBase().InOffsets(), p.InBase().InEdges()
		replaced := make([]bool, n)
		nReplaced := 0
		for lo := 0; lo < n; lo += 64 {
			bits, _ := p.InReplaced(uint32(lo))
			for d := lo; d < min(lo+64, n); d++ {
				if bits>>uint(d-lo)&1 != 0 {
					replaced[d] = true
					nReplaced++
				}
			}
		}
		if nReplaced == 0 || nReplaced == n {
			t.Fatalf("%s: %d of %d rows replaced, want some but not all", vname, nReplaced, n)
		}
		for _, procs := range []int{1, 4} {
			var conds, runs atomic.Int64
			f := core.EdgeFuncs{
				UpdateAtomic: func(_, _ uint32, _ int32) bool { t.Error("push function called in a pull round"); return false },
				Cond:         func(d uint32) bool { conds.Add(1); return keep(d) },
				PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, _ []uint64) uint64 {
					k := len(offs) - 1
					if len(srcs) > 0 && &srcs[0] == &baseEdges[0] {
						runs.Add(1)
						if &offs[0] != &baseOffs[lo] || lo/64 != (lo+uint32(k)-1)/64 {
							t.Errorf("%s procs=%d: run at %d of %d rows not the base's offsets inside one word", vname, procs, lo, k)
						}
						for d := lo; d < lo+uint32(k); d++ {
							if replaced[d] {
								t.Errorf("%s procs=%d: replaced row %d handed from the base", vname, procs, d)
							}
						}
					} else if k != 1 || !replaced[lo] || !keep(lo) {
						t.Errorf("%s procs=%d: block of %d at %d is not a replaced row whose Cond held", vname, procs, k, lo)
					}
					var word uint64
					for i := range k {
						if (lo+uint32(i))%3 == 0 {
							word |= 1 << uint(i)
						}
					}
					return word
				},
			}
			out, err := core.EdgeMap(nil, v, core.NewAll(n), f, core.Options{Mode: core.Pull, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			if conds.Load() != int64(nReplaced) {
				t.Errorf("%s procs=%d: %d Cond calls, want one per replaced row (%d)", vname, procs, conds.Load(), nReplaced)
			}
			if runs.Load() > int64(nReplaced+(n+63)/64) {
				t.Errorf("%s procs=%d: %d runs for %d replaced rows in %d words", vname, procs, runs.Load(), nReplaced, (n+63)/64)
			}
			for d := 0; d < n; d++ {
				want := d%3 == 0 && (!replaced[d] || keep(uint32(d)))
				if out.Contains(uint32(d)) != want {
					t.Fatalf("%s procs=%d: vertex %d in output = %v, want %v", vname, procs, d, !want, want)
				}
			}
		}
	}
}
