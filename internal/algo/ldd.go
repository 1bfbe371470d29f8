package algo

import (
	"context"
	"math"
	"slices"
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

// ConnectedComponentsLDD computes connected components by repeated graph
// contraction over low-diameter decompositions — the expected linear-work
// algorithm of Shun, Dhulipala and Blelloch (SPAA 2014): decompose,
// contract each cluster to one vertex, recurse on the (much smaller)
// cluster graph of crossing edges, then project labels back.
//
// ctx is observed at chunk granularity in every pass, the contraction's
// included. An interrupted run has no useful partial labeling (the
// components are only known once the recursion unwinds): it returns a
// result with nil Labels and the rounds completed, and a *RoundError.
func ConnectedComponentsLDD(ctx context.Context, g graph.View, beta float64, seed uint64, opts core.Options) (*CCResult, error) {
	n := g.NumVertices()
	ldd, err := LDD(ctx, g, beta, seed, opts)
	rounds := ldd.Rounds
	if err != nil {
		return &CCResult{Rounds: rounds}, err
	}
	fail := func(err error) (*CCResult, error) {
		return &CCResult{Rounds: rounds}, roundErr("cc-ldd", rounds, err)
	}

	// Collect crossing edges between cluster IDs, relabeled densely.
	clusterIDs, err := parallel.PackIndex[uint32](ctx, n, func(i int) bool {
		return ldd.Cluster[i] == uint32(i)
	})
	if err != nil {
		return fail(err)
	}
	dense := make([]uint32, n)
	for rank, c := range clusterIDs {
		dense[c] = uint32(rank)
	}
	var crossing []graph.Edge
	for v := uint32(0); int(v) < n; v++ {
		cv := ldd.Cluster[v]
		g.OutNeighbors(v, func(d uint32, _ int32) bool {
			if cd := ldd.Cluster[d]; cd != cv {
				crossing = append(crossing, graph.Edge{Src: dense[cv], Dst: dense[cd]})
			}
			return true
		})
	}

	// label(v) names v's group: its cluster when the clusters are exactly
	// the components, else its cluster's component in the contracted graph.
	label := func(i int) uint32 { return ldd.Cluster[i] }
	if len(crossing) > 0 && len(clusterIDs) > 1 {
		if len(clusterIDs) == n {
			// The decomposition did not contract anything (e.g. beta too
			// large for this graph): recursing would not terminate, so
			// finish with label propagation on the original graph.
			return ConnectedComponentsCtx(ctx, g, opts)
		}
		cg, err := contractClusters(ctx, len(clusterIDs), crossing)
		if err != nil {
			return fail(err)
		}
		sub, err := ConnectedComponentsLDD(ctx, cg, beta, seed+1, opts)
		rounds += sub.Rounds
		if err != nil {
			return &CCResult{Rounds: rounds}, err
		}
		label = func(i int) uint32 { return sub.Labels[dense[ldd.Cluster[i]]] }
	}
	labels, err := parallel.MapNew(ctx, n, label)
	if err != nil {
		return fail(err)
	}
	// Name each group by its minimum vertex ID, the canonical form.
	if err := normalizeByGroup(ctx, labels); err != nil {
		return fail(err)
	}
	components, err := parallel.CountFunc(ctx, n, func(i int) bool { return labels[i] == uint32(i) })
	if err != nil {
		return fail(err)
	}
	return &CCResult{Labels: labels, Components: components, Rounds: rounds}, nil
}

// contractClusters lays the crossing edges between k clusters out as the
// cluster graph: sorted by (Src, Dst) in one radix sort over the combined
// key, repeats dropped, as CSR. Every crossing undirected edge appears in
// both directions, so the cluster graph is symmetric.
func contractClusters(ctx context.Context, k int, crossing []graph.Edge) (*graph.Graph, error) {
	kk := int64(k)
	if err := parallel.RadixSortByKey(ctx, crossing, kk*kk, func(e graph.Edge) int64 {
		return int64(e.Src)*kk + int64(e.Dst)
	}); err != nil {
		return nil, err
	}
	crossing = slices.Compact(crossing)
	offsets := make([]int64, k+1)
	dsts := make([]uint32, len(crossing))
	for i, e := range crossing {
		offsets[e.Src+1]++
		dsts[i] = e.Dst
	}
	for c := 0; c < k; c++ {
		offsets[c+1] += offsets[c]
	}
	return graph.FromCSR(offsets, dsts, nil, true)
}

// normalizeByGroup rewrites arbitrary group IDs to the minimum member
// vertex ID per group.
func normalizeByGroup(ctx context.Context, labels []uint32) error {
	minOf := make(map[uint32]uint32, 64)
	for v, l := range labels {
		if m, ok := minOf[l]; !ok || uint32(v) < m {
			minOf[l] = uint32(v)
		}
	}
	return parallel.For(ctx, len(labels), func(i int) { labels[i] = minOf[labels[i]] })
}
