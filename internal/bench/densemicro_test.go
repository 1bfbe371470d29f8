package bench

import (
	"cmp"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// benchGraphOnce builds (once) the suite's rMat input at a scale small
// enough for `go test -bench` yet with enough edges for the dense/sparse
// switch to exercise both paths.
var benchGraphOnce struct {
	sync.Once
	g   *graph.Graph
	err error
}

func benchInput(b testing.TB) *graph.Graph {
	b.Helper()
	benchGraphOnce.Do(func() {
		in, err := FindInput(DefaultSuite(16), "rMat")
		if err == nil {
			benchGraphOnce.g, err = in.Build()
		}
		benchGraphOnce.err = err
	})
	if benchGraphOnce.err != nil {
		b.Fatal(benchGraphOnce.err)
	}
	return benchGraphOnce.g
}

// benchDenseRound times one forced-dense EdgeMap with a CC-style priority
// update, isolating the pull path from algorithm-level conversions.
func benchDenseRound(b *testing.B, fullFrontier bool) {
	g := benchInput(b)
	n := g.NumVertices()
	ids := make([]uint32, n)
	prev := make([]uint32, n)
	var frontier *core.VertexSubset
	if fullFrontier {
		frontier = core.NewAll(n)
	} else {
		frontier = must(core.NewFromFunc(context.Background(), n, func(v uint32) bool { return v%16 != 0 }))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := cmp.Or(parallel.Iota(context.Background(), ids, 0), parallel.Iota(context.Background(), prev, 0)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		update := func(s, d uint32, _ int32) bool {
			sid := atomic.LoadUint32(&ids[s])
			for {
				old := atomic.LoadUint32(&ids[d])
				if sid >= old {
					return false
				}
				if atomic.CompareAndSwapUint32(&ids[d], old, sid) {
					return old == prev[d]
				}
			}
		}
		must(core.EdgeMap(context.Background(), g, frontier, core.EdgeFuncs{Update: update, UpdateAtomic: update},
			core.Options{Mode: core.Pull}))
	}
}

func BenchmarkDensePullFull(b *testing.B)    { benchDenseRound(b, true) }
func BenchmarkDensePullPartial(b *testing.B) { benchDenseRound(b, false) }
