package algo

import (
	"context"

	"ligra/internal/core"
	"ligra/internal/graph"
)

// ForestResult carries a spanning forest.
type ForestResult struct {
	// Edges are the forest edges (Src = parent, Dst = child) in child-ID
	// order; there are exactly NumVertices - Components of them.
	Edges []graph.Edge
	// Roots are the forest roots, one per connected component.
	Roots []uint32
}

// SpanningForest computes a spanning forest of a symmetric graph with
// BFS waves started from every still-unvisited vertex. Each wave is BFS's
// own claim loop over one parent array shared by all waves, and the tree
// edges are read off that array once the waves are done. All components
// are processed, so the result spans the whole graph.
//
// ctx is observed at chunk granularity inside every round. On interruption
// Edges holds the tree edge of every vertex claimed so far and Roots the
// waves started (a spanning forest of the vertices reached), returned
// with a *RoundError.
func SpanningForest(ctx context.Context, g graph.View, opts core.Options) (*ForestResult, error) {
	n := g.NumVertices()
	parents := make([]uint32, n)
	if err := fill(ctx, parents, core.None); err != nil {
		return &ForestResult{}, roundErr("spanning-forest", 0, err)
	}
	var roots []uint32
	rounds := 0
	var err error
	for v := range parents {
		if parents[v] != core.None {
			continue
		}
		roots = append(roots, uint32(v))
		var r int
		_, r, err = bfsFrom(ctx, g, parents, uint32(v), opts)
		rounds += r
		if err != nil {
			break
		}
	}
	edges := make([]graph.Edge, 0, n-len(roots))
	for v, p := range parents {
		if p != core.None && p != uint32(v) {
			edges = append(edges, graph.Edge{Src: p, Dst: uint32(v)})
		}
	}
	return &ForestResult{Edges: edges, Roots: roots}, roundErr("spanning-forest", rounds, err)
}
