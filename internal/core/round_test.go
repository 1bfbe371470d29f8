package core

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"ligra/internal/bitset"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// TestRoundAllocs pins what one warm round of each kind allocates on a
// side-32 torus, on one worker so that the pool's dispatch bookkeeping is
// not counted. A sparse round reuses the call's pooled scratch — worker
// buffers, chunk lengths, loop bodies — and allocates only its output ID
// array and the subset wrapping it. A dense round allocates its output
// bitset (two objects), the subset, and its loop's closure and the
// wrapper the range loop puts round it; the forward round one more.
// Under the race detector the rounds still run, on the shared scratch,
// but the counts are only logged.
func TestRoundAllocs(t *testing.T) {
	g, err := gen.Grid3D(32)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	ctx := parallel.WithProcs(context.Background(), 1)
	push := func(_, d uint32, _ int32) bool { return d%3 == 0 }
	pull := func(d uint32, srcs []uint32, _ []int32, frontier []uint64) bool {
		for _, s := range srcs {
			if InFrontier(frontier, s) {
				return d%3 == 0
			}
		}
		return false
	}
	small := make([]uint32, 100) // weighs 700: at most smallRoundWork
	large := make([]uint32, 1000)
	for i := range large {
		large[i] = uint32(i * 31 % n)
		if i < len(small) {
			small[i] = large[i]
		}
	}
	bits := bitset.New(n)
	for v := 0; v < n; v += 7 {
		bits.Set(v)
	}
	dense := NewDense(n, bits)
	f := EdgeFuncs{UpdateAtomic: push, PullRow: pull}
	for _, tc := range []struct {
		name string
		u    *VertexSubset
		opts Options
		max  float64
	}{
		{"sparse-small", NewSparse(n, small), Options{Mode: ForceSparse}, 2},
		{"sparse-large", NewSparse(n, large), Options{Mode: ForceSparse}, 2},
		{"forward", dense, Options{Mode: ForceDense, DenseForward: true}, 6},
		{"pull", dense, Options{Mode: ForceDense}, 5},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := EdgeMap(ctx, g, tc.u, f, tc.opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per round", tc.name, allocs)
		if !raceEnabled && allocs > tc.max {
			t.Errorf("%s round made %.0f allocations, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestSparseRoundLargeOutput: a sparse round large enough to spread over
// every worker assembles its output from all their buffers, landing each
// chunk's segment at its offset — the output set is the one a pull and a
// forward round compute from the same frontier.
func TestSparseRoundLargeOutput(t *testing.T) {
	g, err := gen.Grid3D(32)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	ids := make([]uint32, 0, n/2)
	for v := 0; v < n; v += 2 {
		ids = append(ids, uint32(v))
	}
	run := func(opts Options) []uint32 {
		claimed := make([]uint32, n)
		f := EdgeFuncs{UpdateAtomic: func(_, d uint32, _ int32) bool {
			return atomic.CompareAndSwapUint32(&claimed[d], 0, 1)
		}}
		out := edgeMap(g, NewSparse(n, slices.Clone(ids)), f, opts)
		got := slices.Clone(sparseIDs(out))
		slices.Sort(got)
		return got
	}
	want := run(Options{Mode: ForceDense})
	if fwd := run(Options{Mode: ForceDense, DenseForward: true}); !slices.Equal(fwd, want) {
		t.Fatalf("forward output (%d vertices) differs from pull's (%d)", len(fwd), len(want))
	}
	// Which workers end up holding which chunks depends on scheduling, so
	// the round is repeated.
	for i := 0; i < 50; i++ {
		if got := run(Options{Mode: ForceSparse}); !slices.Equal(got, want) {
			t.Fatalf("run %d: sparse round output (%d vertices) differs from pull's (%d)", i, len(got), len(want))
		}
	}
}

// TestFrontierOutDegreesExact: uncapped, the degree scan returns the
// frontier's exact out-degree sum for sparse and dense frontiers alike —
// over raw CSR, where a dense frontier is summed a run of consecutive
// members at a time (runs that end at a word's top bit, fill a whole
// word, or hold one vertex), and over a view read through its OutDegree.
func TestFrontierOutDegreesExact(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, density := range []int{1, 2, 3, 64} {
		bits := bitset.New(n)
		var want int64
		for v := 0; v < n; v++ {
			if v%density == 0 || (v/64)%5 == 0 || v%64 == 63 {
				bits.Set(v)
				want += int64(g.OutDegree(uint32(v)))
			}
		}
		dense := NewDense(n, bits)
		ids, err := dense.ToSparse(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for name, view := range map[string]graph.View{"csr": g, "interface": struct{ graph.View }{g}} {
			for kind, u := range map[string]*VertexSubset{"dense": NewDense(n, bits), "sparse": NewSparse(n, slices.Clone(ids))} {
				sc := roundPool.Get().(*roundScratch)
				sc.g = view
				if csr, ok := view.(*graph.Graph); ok {
					sc.offs, sc.edges, sc.wts = csr.Offsets(), csr.Edges(), csr.Weights()
				}
				got, err := sc.frontierOutDegrees(context.Background(), u, math.MaxInt64)
				sc.release()
				if err != nil || got != want {
					t.Fatalf("density %d, %s view, %s frontier: sum %d (%v), want %d", density, name, kind, got, err, want)
				}
			}
		}
	}
}
