package bench

import (
	"context"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/seq"
)

// App is one of the paper's six applications, wired for the harness: a
// framework implementation parameterized by edgeMap options and a
// sequential baseline.
type App struct {
	Name string
	// NeedsWeights marks apps run on the weighted version of each input
	// (Bellman-Ford, per the paper: random weights in [1, log n)).
	NeedsWeights bool
	// Run executes the Ligra implementation; the traversals start at src,
	// which the caller picks once per graph (Source), outside its timing.
	Run func(g graph.View, src uint32, opts core.Options)
	// RunSeq executes the hand-written sequential baseline from src.
	RunSeq func(g graph.View, src uint32)
}

// Source is the source the apps that take one start from on g: its
// highest-degree vertex (algo.DefaultSource), an O(n) pass the callers
// pay once per graph rather than in every timed run.
func Source(g graph.View) uint32 {
	return must(algo.DefaultSource(context.Background(), g))
}

// Apps returns the paper's six applications with the evaluation's
// parameters (PageRank: 1 power iteration; Radii: K=64; BFS, BC and
// Bellman-Ford from a fixed high-degree source).
func Apps() []App {
	return []App{
		{
			Name: "BFS",
			Run: func(g graph.View, src uint32, opts core.Options) {
				must(algo.BFSCtx(leased(opts), g, src, opts))
			},
			RunSeq: func(g graph.View, src uint32) { seq.BFS(g, src) },
		},
		{
			Name: "BC",
			Run: func(g graph.View, src uint32, opts core.Options) {
				must(algo.BCCtx(leased(opts), g, src, opts))
			},
			RunSeq: func(g graph.View, src uint32) { seq.BC(g, src) },
		},
		{
			Name: "Radii",
			Run: func(g graph.View, _ uint32, opts core.Options) {
				must(algo.RadiiCtx(leased(opts), g, algo.RadiiOptions{K: 64, Seed: 1, EdgeMap: opts}))
			},
			RunSeq: func(g graph.View, _ uint32) {
				// The sequential equivalent of the estimator: 64 plain BFS.
				n := g.NumVertices()
				k := 64
				if k > n {
					k = n
				}
				srcs := make([]uint32, k)
				for i := range srcs {
					srcs[i] = uint32(i)
				}
				seq.Eccentricities(g, srcs)
			},
		},
		{
			Name: "Components",
			Run: func(g graph.View, _ uint32, opts core.Options) {
				must(algo.ConnectedComponentsCtx(leased(opts), g, opts))
			},
			RunSeq: func(g graph.View, _ uint32) { seq.ConnectedComponents(g) },
		},
		{
			Name: "PageRank",
			Run: func(g graph.View, _ uint32, opts core.Options) {
				must(algo.PageRankCtx(leased(opts), g, algo.PageRankOptions{
					Damping: 0.85, MaxIterations: 1, EdgeMap: opts,
				}))
			},
			RunSeq: func(g graph.View, _ uint32) { seq.PageRank(g, 0.85, 0, 1) },
		},
		{
			Name:         "BellmanFord",
			NeedsWeights: true,
			Run: func(g graph.View, src uint32, opts core.Options) {
				must(algo.BellmanFordCtx(leased(opts), g, src, opts))
			},
			RunSeq: func(g graph.View, src uint32) { seq.Dijkstra(g, src) },
		},
	}
}

// leased is the ctx one measured run executes under: opts.Procs, when
// set, caps every pass of it, as Runner.Run does for a query.
func leased(opts core.Options) context.Context {
	return parallel.WithProcs(context.Background(), opts.Procs)
}

// WeightGraph returns the weighted version of g used by Bellman-Ford:
// deterministic hash weights in [1, 32), mirroring the paper's random
// integer weights.
func WeightGraph(g *graph.Graph) *graph.Graph {
	return g.AddWeights(graph.HashWeight(31))
}
