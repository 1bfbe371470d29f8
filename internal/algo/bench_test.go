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

// BenchmarkPointQueries times what a plain reach or landmarks query
// costs against the full level sweep it once ran: BFSLevels, reach (one
// target), landmarks-4 and landmarks-64, each op from a fresh source of
// nonzero degree to targets drawn uniformly, on the scale-16 rMat that
// ligra-serve hosts and a grid3d of side 32. levels-B is the most bytes
// of level arrays one op held at once, live rather than allocated (the
// searches draw theirs from a pool):
//
//	go test -run '^$' -bench PointQueries -cpu 1,2 -count 7 ./internal/algo
func BenchmarkPointQueries(b *testing.B) {
	rmat, err := gen.Family("rmat", 16, 42)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := gen.Grid3D(32)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat16", rmat}, {"grid3d32", grid}} {
		g, n := in.g, uint64(in.g.NumVertices())
		// op i's source and targets, from a hash of i.
		source := func(i int) uint32 {
			for j := uint64(0); ; j++ {
				if s := uint32(algo.HashU64(uint64(i), j) % n); g.OutDegree(s) > 0 {
					return s
				}
			}
		}
		targets := func(i, k int) []uint32 {
			ts := make([]uint32, k)
			for j := range ts {
				ts[j] = uint32(algo.HashU64(uint64(i)+n, uint64(j)) % n)
			}
			return ts
		}
		// Each query returns the level arrays it held at once.
		search := func(k int) func(i int) (int, error) {
			return func(i int) (int, error) {
				_, held, err := algo.DistancesHeld(ctx, g, source(i), targets(i, k), core.Options{})
				return held, err
			}
		}
		queries := []struct {
			name string
			run  func(i int) (int, error)
		}{
			{"bfs-levels", func(i int) (int, error) {
				_, err := algo.BFSLevelsCtx(ctx, g, source(i), core.Options{})
				return 1, err
			}},
			{"reach", search(1)},
			{"landmarks-4", search(4)},
			{"landmarks-64", search(algo.MaxLandmarks)},
		}
		for _, q := range queries {
			b.Run(in.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				most := 0
				for i := range b.N {
					held, err := q.run(i)
					if err != nil {
						b.Fatal(err)
					}
					most = max(most, held)
				}
				b.ReportMetric(float64(most*4)*float64(n), "levels-B")
			})
		}
	}
}
