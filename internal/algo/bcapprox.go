package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// atomicAdd64 is a shorthand for atomic addition on a slice element.
func atomicAdd64(addr *int64, delta int64) { atomic.AddInt64(addr, delta) }

// BCApproxResult carries the output of sampled betweenness centrality.
type BCApproxResult struct {
	// Scores[v] is the estimated betweenness centrality of v: the sum of
	// single-source dependencies over the sampled sources, scaled by
	// n/|sample| (the Brandes-Pich estimator).
	Scores []float64
	// Sources are the sampled roots.
	Sources []uint32
}

// BCApprox estimates betweenness centrality by running the paper's
// single-source BC from k sampled sources and scaling — the standard
// sampling estimator, matching how the paper's evaluation exercises BC
// "from a (sampled) vertex" while providing whole-graph scores.
func BCApprox(g graph.View, k int, seed uint64, opts core.Options) *BCApproxResult {
	res, err := BCApproxCtx(nil, g, k, seed, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// BCApproxCtx is BCApprox with cooperative cancellation, observed between
// sampled sources and inside each per-source BC run. On interruption it
// returns the estimator computed from the sources completed so far
// (scaled by n/completed; all-zero if none completed), with a
// *RoundError whose Round counts completed sources.
func BCApproxCtx(ctx context.Context, g graph.View, k int, seed uint64, opts core.Options) (*BCApproxResult, error) {
	n := g.NumVertices()
	if k <= 0 || k > n {
		k = min(n, 16)
	}
	sources := sampleVertices(n, k, seed)
	scores := make([]float64, n)
	done := 0
	partial := func(err error) (*BCApproxResult, error) {
		if done > 0 {
			scale := float64(n) / float64(done)
			parallel.For(n, func(i int) { scores[i] *= scale })
		}
		return &BCApproxResult{Scores: scores, Sources: sources[:done]},
			roundErr("bc-approx", done, err)
	}
	for _, s := range sources {
		res, err := BCCtx(ctx, g, s, opts)
		if err != nil {
			// Discard the interrupted source's partial dependencies: the
			// estimator only sums fully accumulated per-source scores.
			return partial(err)
		}
		parallel.For(n, func(i int) {
			scores[i] += res.Scores[i]
		})
		done++
	}
	return partial(nil)
}

// LocalClusteringCoefficients returns, for every vertex of a symmetric
// simple graph, the fraction of its neighbor pairs that are connected
// (triangles(v) / (deg(v) choose 2); 0 for degree < 2). It reuses the
// rank-ordered triangle machinery to count per-vertex triangles.
func LocalClusteringCoefficients(g graph.View) []float64 {
	n := g.NumVertices()
	triPerVertex := make([]int64, n)
	countTrianglesPerVertex(g, triPerVertex)
	out := make([]float64, n)
	parallel.For(n, func(i int) {
		deg := int64(g.OutDegree(uint32(i)))
		if deg < 2 {
			return
		}
		out[i] = float64(triPerVertex[i]) / float64(deg*(deg-1)/2)
	})
	return out
}
