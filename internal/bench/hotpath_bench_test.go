package bench

import (
	"context"
	"sync"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/graph"
)

// benchGraph builds (once) the same rMat input the hotpath experiment uses,
// at a scale small enough for `go test -bench` yet with enough edges for the
// dense/sparse switch to exercise both paths.
var benchGraphOnce struct {
	sync.Once
	g   *graph.Graph
	src uint32
	err error
}

func benchInput(b testing.TB) (*graph.Graph, uint32) {
	b.Helper()
	benchGraphOnce.Do(func() {
		in, err := FindInput(DefaultSuite(16), "rMat")
		if err != nil {
			benchGraphOnce.err = err
			return
		}
		g, err := in.Build()
		if err != nil {
			benchGraphOnce.err = err
			return
		}
		benchGraphOnce.g = g
		benchGraphOnce.src = pickSource(g)
	})
	if benchGraphOnce.err != nil {
		b.Fatal(benchGraphOnce.err)
	}
	return benchGraphOnce.g, benchGraphOnce.src
}

func BenchmarkHotPathBFS(b *testing.B) {
	g, src := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(algo.BFSCtx(context.Background(), g, src, core.Options{}))
	}
}

func BenchmarkHotPathBFSSparse(b *testing.B) {
	g, src := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(algo.BFSCtx(context.Background(), g, src, core.Options{Mode: core.Sparse}))
	}
}

func BenchmarkHotPathComponents(b *testing.B) {
	g, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(algo.ConnectedComponentsCtx(context.Background(), g, core.Options{}))
	}
}

func BenchmarkHotPathPageRank1(b *testing.B) {
	g, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(algo.PageRankCtx(context.Background(), g, algo.PageRankOptions{
			Damping: 0.85, MaxIterations: 1,
			EdgeMap: core.Options{Mode: core.Pull},
		}))
	}
}
