package algo

import (
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// ForestResult carries a spanning forest.
type ForestResult struct {
	// Edges are the forest edges (Src = parent, Dst = child); there are
	// exactly NumVertices - Components of them.
	Edges []graph.Edge
	// Roots are the forest roots, one per connected component.
	Roots []uint32
}

// SpanningForest computes a spanning forest of a symmetric graph with
// BFS waves started from every still-unvisited vertex. Each wave is BFS's
// own edgeMap — a CAS claim on the parent array — and the tree edge of
// every vertex a round discovers is read back from that array. All
// components are processed, so the result spans the whole graph.
func SpanningForest(g graph.View, opts core.Options) *ForestResult {
	n := g.NumVertices()
	parents := make([]uint32, n)
	parallel.Fill(parents, core.None)

	funcs := core.EdgeFuncs{
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return atomic.CompareAndSwapUint32(&parents[d], core.None, s)
		},
		Cond: func(d uint32) bool { return atomic.LoadUint32(&parents[d]) == core.None },
	}
	// One claim per destination per round, as in BFS.
	opts.DenseEarlyExit = true

	var forest []graph.Edge
	var roots []uint32
	for start := uint32(0); int(start) < n; start++ {
		if parents[start] != core.None {
			continue
		}
		parents[start] = start
		roots = append(roots, start)
		frontier := core.NewSingle(n, start)
		for !frontier.IsEmpty() {
			frontier = core.EdgeMap(g, frontier, funcs, opts)
			frontier.ForEachSeq(func(d uint32) {
				forest = append(forest, graph.Edge{Src: parents[d], Dst: d})
			})
		}
	}
	return &ForestResult{Edges: forest, Roots: roots}
}
