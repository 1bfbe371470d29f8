package algo

import (
	"cmp"
	"context"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// KCoreResult carries the output of the k-core decomposition.
type KCoreResult struct {
	// Coreness[v] is the largest k such that v belongs to the k-core (the
	// maximal subgraph with all induced degrees >= k).
	Coreness []int32
	// MaxCore is the largest coreness over all vertices (the degeneracy).
	MaxCore int32
	// Rounds is the total number of peeling edgeMap rounds.
	Rounds int
}

// KCoreCtx computes the k-core decomposition of a symmetric graph by
// parallel peeling, the bucketing-style workload that motivated the
// Julienne extension of Ligra: for k = 1, 2, ... it repeatedly removes
// vertices whose induced degree is below k (assigning them coreness k-1),
// pushing degree decrements to neighbors through edgeMap. A neighbor joins
// the next peel set exactly when its degree first drops below k, which the
// fetch-and-add detects without extra flags.
//
// Cancellation is observed before each peel round and at chunk granularity
// inside the peeling edgeMaps. On interruption Coreness is exact for every
// already-peeled vertex (-1 for vertices not yet assigned) and is returned
// with a *RoundError.
func KCoreCtx(ctx context.Context, g graph.View, opts core.Options) (*KCoreResult, error) {
	n := g.NumVertices()
	coreness := make([]int32, n)
	deg := make([]int32, n)
	alive := n
	rounds := 0
	// k only grows, so the largest coreness assigned so far is the last
	// peel's k-1.
	maxCore := int32(0)
	partial := func(err error) (*KCoreResult, error) {
		return &KCoreResult{Coreness: coreness, MaxCore: maxCore, Rounds: rounds},
			roundErr("kcore", rounds, err)
	}
	if err := cmp.Or(
		fill(ctx, coreness, int32(-1)),
		parallel.For(ctx, n, func(i int) { deg[i] = int32(g.OutDegree(uint32(i))) }),
	); err != nil {
		return partial(err)
	}
	k := int32(1)
	for alive > 0 {
		peel, err := core.NewFromFunc(ctx, n, func(v uint32) bool {
			return coreness[v] == -1 && deg[v] < k
		})
		if err != nil {
			return partial(err)
		}
		if peel.IsEmpty() {
			k++
			continue
		}
		funcs := core.EdgeFuncs{
			UpdateAtomic: func(_, d uint32, _ int32) bool {
				if atomic.LoadInt32(&coreness[d]) != -1 {
					return false
				}
				// Exactly-once: only the decrement crossing k-1 returns
				// true. Current peel members sit below k-1 already, so
				// they never rejoin.
				return atomic.AddInt32(&deg[d], -1) == k-1
			},
		}
		for !peel.IsEmpty() {
			if err := core.VertexMap(ctx, peel, func(v uint32) { coreness[v] = k - 1 }); err != nil {
				return partial(err)
			}
			maxCore = k - 1
			alive -= peel.Size()
			next, err := core.EdgeMap(ctx, g, peel, funcs, opts)
			if err != nil {
				return partial(err)
			}
			peel = next
			rounds++
		}
		k++
	}
	return partial(nil)
}
