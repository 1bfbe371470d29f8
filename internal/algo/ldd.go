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
func LDD(g graph.View, beta float64, seed uint64, opts core.Options) *LDDResult {
	n := g.NumVertices()
	if beta <= 0 {
		beta = 0.2
	}
	cluster := make([]uint32, n)
	parallel.Fill(cluster, core.None)

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
	round := 0
	remaining := n
	for remaining > 0 || !frontier.IsEmpty() {
		// Wake up new centers whose start time has arrived and that have
		// not been captured by an earlier ball.
		wake := core.NewFromFunc(n, func(v uint32) bool {
			return start[v] <= round && cluster[v] == core.None
		})
		if !wake.IsEmpty() {
			core.VertexMap(wake, func(v uint32) {
				atomic.StoreUint32(&cluster[v], v)
			})
			remaining -= wake.Size()
			frontier = core.Union(frontier, wake)
		}
		if frontier.IsEmpty() {
			round++
			continue
		}
		out := core.EdgeMap(g, frontier, funcs, opts)
		remaining -= out.Size()
		frontier = out
		round++
	}

	clusters := parallel.CountFunc(n, func(i int) bool { return cluster[i] == uint32(i) })
	return &LDDResult{Cluster: cluster, NumClusters: clusters, Rounds: round}
}

// ConnectedComponentsLDD computes connected components by repeated graph
// contraction over low-diameter decompositions — the expected linear-work
// algorithm of Shun, Dhulipala and Blelloch (SPAA 2014): decompose,
// contract each cluster to one vertex, recurse on the (much smaller)
// cluster graph of crossing edges, then project labels back.
func ConnectedComponentsLDD(g graph.View, beta float64, seed uint64, opts core.Options) *CCResult {
	n := g.NumVertices()
	ldd := LDD(g, beta, seed, opts)

	// Collect crossing edges between cluster IDs, relabeled densely.
	clusterIDs := parallel.PackIndex[uint32](n, func(i int) bool {
		return ldd.Cluster[i] == uint32(i)
	})
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

	labels := make([]uint32, n)
	if len(crossing) == 0 || len(clusterIDs) == 1 {
		// Clusters are exactly the components.
		parallel.For(n, func(i int) { labels[i] = ldd.Cluster[i] })
		normalizeLabels(g, labels)
		components := parallel.CountFunc(n, func(i int) bool { return labels[i] == uint32(i) })
		return &CCResult{Labels: labels, Components: components, Rounds: ldd.Rounds}
	}

	if len(clusterIDs) == n {
		// The decomposition did not contract anything (e.g. beta too
		// large for this graph): recursing would not terminate, so finish
		// with label propagation on the original graph.
		return must(ConnectedComponentsCtx(context.TODO(), g, opts))
	}
	cg, err := graph.FromEdges(len(clusterIDs), crossing, graph.BuildOptions{
		RemoveDuplicates: true,
	})
	if err != nil {
		// Cannot happen with valid cluster IDs; fall back to label
		// propagation to stay total.
		return must(ConnectedComponentsCtx(context.TODO(), g, opts))
	}
	// The contracted graph is symmetric as an edge set (each crossing
	// undirected edge appears in both directions) even though FromEdges
	// was not asked to symmetrize.
	sub := ConnectedComponentsLDD(cg, beta, seed+1, opts)

	// Project back: component of v = component of its cluster, expressed
	// as a minimum original-vertex label.
	parallel.For(n, func(i int) {
		labels[i] = sub.Labels[dense[ldd.Cluster[i]]]
	})
	// labels currently name dense cluster components; convert to the
	// minimum vertex ID per component for the canonical form.
	normalizeByGroup(labels, n)
	components := parallel.CountFunc(n, func(i int) bool { return labels[i] == uint32(i) })
	return &CCResult{Labels: labels, Components: components, Rounds: ldd.Rounds + sub.Rounds}
}

// normalizeByGroup rewrites arbitrary group IDs to the minimum member
// vertex ID per group.
func normalizeByGroup(labels []uint32, n int) {
	minOf := make(map[uint32]uint32, 64)
	for v := 0; v < n; v++ {
		l := labels[v]
		if m, ok := minOf[l]; !ok || uint32(v) < m {
			minOf[l] = uint32(v)
		}
	}
	parallel.For(n, func(i int) { labels[i] = minOf[labels[i]] })
}

// normalizeLabels rewrites labels so each component is named by its
// minimum vertex ID (labels must already be component-consistent).
func normalizeLabels(g graph.View, labels []uint32) {
	normalizeByGroup(labels, g.NumVertices())
}
