package bench

import (
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
	// Run executes the Ligra implementation.
	Run func(g graph.View, opts core.Options)
	// RunSeq executes the hand-written sequential baseline.
	RunSeq func(g graph.View)
}

// pickSource returns a deterministic high-degree source vertex, standing
// in for the paper's "random source" while keeping runs reproducible.
func pickSource(g graph.View) uint32 {
	n := g.NumVertices()
	return uint32(parallel.MaxIndexFunc(n, func(i int) int {
		return g.OutDegree(uint32(i))
	}))
}

// Apps returns the paper's six applications with the evaluation's
// parameters (PageRank: 1 power iteration; Radii: K=64; BC and BFS from a
// fixed high-degree source).
func Apps() []App {
	return []App{
		{
			Name: "BFS",
			Run: func(g graph.View, opts core.Options) {
				algo.BFS(g, pickSource(g), opts)
			},
			RunSeq: func(g graph.View) { seq.BFS(g, pickSource(g)) },
		},
		{
			Name: "BC",
			Run: func(g graph.View, opts core.Options) {
				algo.BC(g, pickSource(g), opts)
			},
			RunSeq: func(g graph.View) { seq.BC(g, pickSource(g)) },
		},
		{
			Name: "Radii",
			Run: func(g graph.View, opts core.Options) {
				algo.Radii(g, algo.RadiiOptions{K: 64, Seed: 1, EdgeMap: opts})
			},
			RunSeq: func(g graph.View) {
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
			Run: func(g graph.View, opts core.Options) {
				algo.ConnectedComponents(g, opts)
			},
			RunSeq: func(g graph.View) { seq.ConnectedComponents(g) },
		},
		{
			Name: "PageRank",
			Run: func(g graph.View, opts core.Options) {
				algo.PageRank(g, algo.PageRankOptions{
					Damping: 0.85, MaxIterations: 1, EdgeMap: opts,
				})
			},
			RunSeq: func(g graph.View) { seq.PageRank(g, 0.85, 0, 1) },
		},
		{
			Name:         "BellmanFord",
			NeedsWeights: true,
			Run: func(g graph.View, opts core.Options) {
				algo.BellmanFord(g, pickSource(g), opts)
			},
			RunSeq: func(g graph.View) { seq.Dijkstra(g, pickSource(g)) },
		},
	}
}

// WeightGraph returns the weighted version of g used by Bellman-Ford:
// deterministic hash weights in [1, 32), mirroring the paper's random
// integer weights.
func WeightGraph(g *graph.Graph) *graph.Graph {
	return g.AddWeights(graph.HashWeight(31))
}
