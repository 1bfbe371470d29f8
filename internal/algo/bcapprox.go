package algo

import (
	"cmp"
	"context"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// BCApproxResult carries the output of sampled betweenness centrality.
type BCApproxResult struct {
	// Scores[v] is the estimated betweenness centrality of v: the sum of
	// single-source dependencies over the sampled sources, scaled by
	// n/|sample| (the Brandes-Pich estimator).
	Scores []float64
	// Sources are the sampled roots.
	Sources []uint32
}

// BCApproxCtx estimates betweenness centrality by running the paper's
// single-source BC from k sampled sources and scaling — the standard
// sampling estimator, matching how the paper's evaluation exercises BC
// "from a (sampled) vertex" while providing whole-graph scores.
// Cancellation is observed inside each per-source BC run. On
// interruption it returns the estimator computed from the sources
// completed so far (scaled by n/completed; all-zero if none completed),
// with a *RoundError whose Round counts completed sources: a completed
// source's scores are summed, and the sum scaled, by passes that run to
// their end under ctx's worker cap without its cancellation.
func BCApproxCtx(ctx context.Context, g graph.View, k int, seed uint64, opts core.Options) (*BCApproxResult, error) {
	n := g.NumVertices()
	if k <= 0 {
		k = 16
	}
	sources := sampleVertices(n, min(k, n), seed)
	scores := make([]float64, n)
	done := 0
	commit := detached(ctx)
	partial := func(err error) (*BCApproxResult, error) {
		if done > 0 {
			scale := float64(n) / float64(done)
			err = cmp.Or(err, parallel.For(commit, n, func(i int) { scores[i] *= scale }))
		}
		return &BCApproxResult{Scores: scores, Sources: sources[:done]},
			roundErr("bc-approx", done, err)
	}
	for _, s := range sources {
		res, err := BCCtx(ctx, g, s, opts)
		if err == nil {
			err = parallel.For(commit, n, func(i int) { scores[i] += res.Scores[i] })
		}
		if err != nil {
			// Discard the interrupted source's partial dependencies: the
			// estimator only sums fully accumulated per-source scores.
			return partial(err)
		}
		done++
	}
	return partial(nil)
}

// LocalClusteringCoefficients returns, for every vertex of a symmetric
// simple graph, the fraction of its neighbor pairs that are connected
// (triangles(v) / (deg(v) choose 2); 0 for degree < 2). It reuses the
// rank-ordered triangle machinery to count per-vertex triangles. An
// interrupted run has no useful partial result: it returns nil and a
// *RoundError.
func LocalClusteringCoefficients(ctx context.Context, g graph.View) ([]float64, error) {
	n := g.NumVertices()
	triPerVertex := make([]int64, n)
	if err := countTrianglesPerVertex(ctx, g, triPerVertex); err != nil {
		return nil, roundErr("clustering", 0, err)
	}
	out := make([]float64, n)
	if err := parallel.For(ctx, n, func(i int) {
		deg := int64(g.OutDegree(uint32(i)))
		if deg < 2 {
			return
		}
		out[i] = float64(triPerVertex[i]) / float64(deg*(deg-1)/2)
	}); err != nil {
		return nil, roundErr("clustering", 0, err)
	}
	return out, nil
}
