package algo_test

import (
	"context"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/viewtest"
)

// BenchmarkPullViews times the algorithms whose rounds are mostly pull
// rounds — BFS, Components and five PageRank iterations — on a scale-16
// rMat behind the views a pull round serves from: raw CSR ("heap"), a
// shallow and a deep delta overlay, and the compressed decoder. Only
// "heap" hands the row kernel 64 destinations per call; the others call
// it once per destination, so this is the check that those stay as fast
// as they were:
//
//	go test -run '^$' -bench PullViews -count 7 ./internal/algo
func BenchmarkPullViews(b *testing.B) {
	g, err := gen.RMAT(16, 8, gen.PBBSRMAT, 1)
	if err != nil {
		b.Fatal(err)
	}
	views := viewtest.Matrix(b, g, viewtest.NetZero(g)...)
	ctx := context.Background()
	pr := algo.DefaultPageRankOptions()
	pr.Epsilon, pr.MaxIterations = 0, 5
	algos := []struct {
		name string
		run  func(v graph.View) error
	}{
		{"BFS", func(v graph.View) error { _, err := algo.BFSCtx(ctx, v, 0, core.Options{}); return err }},
		{"Components", func(v graph.View) error { _, err := algo.ConnectedComponentsCtx(ctx, v, core.Options{}); return err }},
		{"PageRank5", func(v graph.View) error { _, err := algo.PageRankCtx(ctx, v, pr); return err }},
	}
	for _, vname := range []string{"heap", "snapshot", "snapshot-deep", "compressed"} {
		v := views[vname]
		for _, a := range algos {
			b.Run(vname+"/"+a.name, func(b *testing.B) {
				for range b.N {
					if err := a.run(v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPushViews times the algorithms whose rounds are mostly push
// rounds — BFS, BC and Bellman-Ford — on a weighted grid3d of side 32
// behind the views a push round serves from: raw CSR ("heap"), a shallow
// and a deep delta overlay, and the compressed decoder. Only "heap" hands
// the row kernel its out-rows in place; the others fetch each row through
// OutRow into the worker's scratch, so this is the check that those stay
// as fast as they were:
//
//	go test -run '^$' -bench PushViews -count 7 ./internal/algo
func BenchmarkPushViews(b *testing.B) {
	g, err := gen.Grid3D(32)
	if err != nil {
		b.Fatal(err)
	}
	g = g.AddWeights(graph.HashWeight(100))
	views := viewtest.Matrix(b, g, viewtest.NetZero(g)...)
	ctx := context.Background()
	algos := []struct {
		name string
		run  func(v graph.View) error
	}{
		{"BFS", func(v graph.View) error { _, err := algo.BFSCtx(ctx, v, 0, core.Options{}); return err }},
		{"BC", func(v graph.View) error { _, err := algo.BCCtx(ctx, v, 0, core.Options{}); return err }},
		{"BellmanFord", func(v graph.View) error { _, err := algo.BellmanFordCtx(ctx, v, 0, core.Options{}); return err }},
	}
	for _, vname := range []string{"heap", "snapshot", "snapshot-deep", "compressed"} {
		v := views[vname]
		for _, a := range algos {
			b.Run(vname+"/"+a.name, func(b *testing.B) {
				for range b.N {
					if err := a.run(v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
