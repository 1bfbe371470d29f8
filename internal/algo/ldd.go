package algo

import (
	"context"
	"math"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// LDDResult carries a low-diameter decomposition.
type LDDResult struct {
	// Cluster[v] is the ID (a vertex) of the cluster containing v.
	Cluster []uint32
	// NumClusters is the number of distinct clusters.
	NumClusters int
	// Rounds is the number of BFS rounds used by the growth process.
	Rounds int
}

// LDD computes a low-diameter decomposition of a symmetric graph in the
// style of Miller, Peng and Xu (as used by Shun, Dhulipala and Blelloch's
// linear-work connectivity, SPAA 2014): every vertex draws an exponential
// shift delta_v with parameter beta, and cluster centers start their BFS
// at time shifted by -delta_v; each vertex joins the first BFS ball to
// reach it. With parameter beta, clusters have radius O(log(n)/beta) and
// only an O(beta) fraction of edges cross clusters, in expectation.
//
// ctx is observed at chunk granularity in every pass. On interruption
// Cluster holds the balls grown so far (core.None for vertices no ball has
// reached) and NumClusters is 0, returned with a *RoundError.
func LDD(ctx context.Context, g graph.View, beta float64, seed uint64, opts core.Options) (*LDDResult, error) {
	n := g.NumVertices()
	if beta <= 0 {
		beta = 0.2
	}
	cluster := make([]uint32, n)
	round := 0
	partial := func(err error) (*LDDResult, error) {
		return &LDDResult{Cluster: cluster, Rounds: round}, roundErr("ldd", round, err)
	}
	if err := fill(ctx, cluster, core.None); err != nil {
		return partial(err)
	}

	// Exponential shifts, deterministic per vertex; quantized to integer
	// rounds. start[v] = round at which v's own cluster would begin
	// growing (vertices with larger shifts start earlier relative to the
	// global clock: we invert so the max shift starts at round 0).
	shifts := make([]float64, n)
	maxShift := 0.0
	for v := 0; v < n; v++ {
		u := float64(hashU64(seed, uint64(v))>>11) / (1 << 53)
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		shifts[v] = -math.Log(u) / beta // Exp(beta)
		if shifts[v] > maxShift {
			maxShift = shifts[v]
		}
	}
	start := make([]int, n)
	for v := 0; v < n; v++ {
		start[v] = int(maxShift - shifts[v])
	}

	funcs := core.EdgeFuncs{
		Update: func(s, d uint32, _ int32) bool {
			if cluster[d] == core.None {
				cluster[d] = cluster[s]
				return true
			}
			return false
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return atomic.CompareAndSwapUint32(&cluster[d],
				core.None, atomic.LoadUint32(&cluster[s]))
		},
		Cond: func(d uint32) bool { return atomic.LoadUint32(&cluster[d]) == core.None },
	}

	frontier := core.NewEmpty(n)
	remaining := n
	for remaining > 0 || !frontier.IsEmpty() {
		// Wake up new centers whose start time has arrived and that have
		// not been captured by an earlier ball.
		wake, err := core.NewFromFunc(ctx, n, func(v uint32) bool {
			return start[v] <= round && cluster[v] == core.None
		})
		if err != nil {
			return partial(err)
		}
		if !wake.IsEmpty() {
			if err := core.VertexMap(ctx, wake, func(v uint32) {
				atomic.StoreUint32(&cluster[v], v)
			}); err != nil {
				return partial(err)
			}
			remaining -= wake.Size()
			if frontier, err = core.Union(ctx, frontier, wake); err != nil {
				return partial(err)
			}
		}
		if frontier.IsEmpty() {
			round++
			continue
		}
		out, err := core.EdgeMap(ctx, g, frontier, funcs, opts)
		if err != nil {
			return partial(err)
		}
		remaining -= out.Size()
		frontier = out
		round++
	}

	clusters, err := parallel.CountFunc(ctx, n, func(i int) bool { return cluster[i] == uint32(i) })
	if err != nil {
		return partial(err)
	}
	return &LDDResult{Cluster: cluster, NumClusters: clusters, Rounds: round}, nil
}
