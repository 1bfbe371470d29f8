package algo

import (
	"cmp"
	"context"
	"sync/atomic"

	"ligra/internal/buckets"
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
	// Peels is the number of peel rounds executed.
	Peels int
}

// DensestSubgraph computes a 2-approximation of the densest subgraph of a
// symmetric simple graph with Charikar's greedy peeling (the classic
// bucketing workload): repeatedly remove a minimum-degree vertex (here, a
// whole minimum bucket at a time, which preserves the approximation
// factor) and return the intermediate subgraph of maximum density.
// Uses the Julienne bucket structure keyed by current degree.
//
// ctx is observed at chunk granularity inside every peel's edgeMap. On
// interruption Density is the best found over the peels completed,
// Vertices is nil, and the *RoundError counts the peels.
func DensestSubgraph(ctx context.Context, g graph.View, opts core.Options) (*DensestResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return &DensestResult{}, roundErr("densest", 0, parallel.CtxErr(ctx))
	}
	deg := make([]int32, n)
	removed := make([]int32, n) // peel order stamp; -1 = still present
	if err := cmp.Or(
		parallel.For(ctx, n, func(i int) { deg[i] = int32(g.OutDegree(uint32(i))) }),
		fill(ctx, removed, int32(-1)),
	); err != nil {
		return &DensestResult{}, roundErr("densest", 0, err)
	}

	bkts := buckets.New(n, func(v uint32) int64 { return int64(deg[v]) })

	// Track density as vertices peel: edges halve-counted via degree sum.
	aliveVerts := int64(n)
	aliveEdges := g.NumEdges() / 2 // undirected edges
	bestDensity := float64(aliveEdges) / float64(aliveVerts)
	bestStamp := int32(0) // subgraph = vertices with removed >= bestStamp or -1

	opts.RemoveDuplicates = true
	stamp := int32(0)
	funcs := core.EdgeFuncs{
		UpdateAtomic: func(_, d uint32, _ int32) bool {
			if atomic.LoadInt32(&removed[d]) != -1 {
				return false
			}
			atomic.AddInt32(&deg[d], -1)
			return true
		},
	}

	peels := 0
	for {
		_, members, ok := bkts.Next()
		if !ok {
			break
		}
		peels++
		stamp++
		for _, v := range members {
			removed[v] = stamp
		}
		// Edges leaving with this batch: sum of the members' remaining
		// degrees, minus the double count of edges internal to the batch
		// (each internal edge appears in two members' degrees).
		var removedEdges, internalPairs int64
		for _, v := range members {
			removedEdges += int64(deg[v])
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if removed[d] == stamp && d != v {
					internalPairs++
				}
				return true
			})
		}
		removedEdges -= internalPairs / 2

		frontier := core.NewSparse(n, members)
		out, err := core.EdgeMap(ctx, g, frontier, funcs, opts)
		if err != nil {
			// This peel's stamps are set but its edges never left: the
			// density so far is that of the peels before it.
			return &DensestResult{Density: bestDensity, Peels: peels - 1}, roundErr("densest", peels-1, err)
		}
		out.ForEachSeq(func(d uint32) {
			if removed[d] != -1 {
				return
			}
			bkts.Update(d, int64(deg[d]))
		})

		aliveVerts -= int64(len(members))
		aliveEdges -= removedEdges
		if aliveVerts > 0 {
			if dns := float64(aliveEdges) / float64(aliveVerts); dns > bestDensity {
				bestDensity = dns
				bestStamp = stamp
			}
		}
	}

	var verts []uint32
	for v := 0; v < n; v++ {
		if removed[v] == -1 || removed[v] > bestStamp {
			verts = append(verts, uint32(v))
		}
	}
	return &DensestResult{Vertices: verts, Density: bestDensity, Peels: peels}, nil
}
