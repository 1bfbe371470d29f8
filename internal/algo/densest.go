package algo

import (
	"context"
	"errors"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// DensestResult carries an approximate densest subgraph.
type DensestResult struct {
	// Vertices of the returned subgraph.
	Vertices []uint32
	// Density is |E(S)| / |S| counting undirected edges once.
	Density float64
	// Peels is the number of k-core peeling rounds executed.
	Peels int
}

// DensestSubgraph computes a 2-approximation of the densest subgraph of a
// symmetric simple graph: the densest of its k-cores, read off KCoreCtx's
// coreness in one pass over the edges. The k-core is the vertices of
// coreness >= k and the edges whose lower-coreness end is one of them, so
// counting vertices per coreness and edges per lower-end coreness, then
// summing from the top, gives |V| and |E| of every k-core at once. Every
// vertex of a densest subgraph has induced degree >= its density rho*, so
// the degeneracy k_max is >= rho*, and the k_max-core, whose induced
// degrees are all >= k_max, has density >= k_max/2 >= rho*/2.
//
// ctx is observed by the peel and by the counting pass. On interruption
// Vertices is nil, Density is the whole graph's (the 0-core's, which needs
// no peel), and Peels and the *RoundError count the peel rounds completed.
func DensestSubgraph(ctx context.Context, g graph.View, opts core.Options) (*DensestResult, error) {
	n := g.NumVertices()
	whole := 0.0
	if n > 0 {
		whole = float64(g.NumEdges()/2) / float64(n)
	}
	kc, err := KCoreCtx(ctx, g, opts)
	partial := func(err error) (*DensestResult, error) {
		return &DensestResult{Density: whole, Peels: kc.Rounds}, roundErr("densest", kc.Rounds, err)
	}
	if err != nil {
		var re *RoundError
		errors.As(err, &re) // KCoreCtx reports every interruption as one
		return partial(re.Err)
	}
	coreness := kc.Coreness

	// Per worker, verts[c] counts the vertices of coreness c and edges[c]
	// the edges whose lower end has coreness c. An edge is counted once,
	// at the end with the smaller (coreness, ID) key, and a self-loop
	// never; the key packed into one word makes that one comparison.
	type counts struct{ verts, edges []int64 }
	per := make([]counts, parallel.CtxProcs(ctx))
	for w := range per {
		per[w] = counts{make([]int64, kc.MaxCore+1), make([]int64, kc.MaxCore+1)}
	}
	if err := parallel.ForWorkerChunks(ctx, n, 0, func(worker, _, lo, hi int) {
		c := per[worker]
		var buf graph.Row
		for i := lo; i < hi; i++ {
			cv := coreness[i]
			key := uint64(cv)<<32 | uint64(i)
			ts, _ := g.OutRow(uint32(i), &buf)
			var up int64
			for _, d := range ts {
				if uint64(coreness[d])<<32|uint64(d) > key {
					up++
				}
			}
			c.verts[cv]++
			c.edges[cv] += up
		}
	}); err != nil {
		return partial(err)
	}
	verts, edges := per[0].verts, per[0].edges
	for _, c := range per[1:] {
		for k := range verts {
			verts[k] += c.verts[k]
			edges[k] += c.edges[k]
		}
	}
	best, bestK := 0.0, int32(0)
	var nv, ne int64
	for k := kc.MaxCore; k >= 0; k-- {
		nv += verts[k]
		ne += edges[k]
		if nv > 0 {
			if d := float64(ne) / float64(nv); d > best {
				best, bestK = d, k
			}
		}
	}
	members, err := parallel.PackIndex[uint32](ctx, n, func(i int) bool { return coreness[i] >= bestK })
	if err != nil {
		return partial(err)
	}
	return &DensestResult{Vertices: members, Density: best, Peels: kc.Rounds}, nil
}
