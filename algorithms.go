package ligra

import (
	"context"

	"ligra/internal/algo"
	"ligra/internal/parallel"
)

// Result types of the built-in algorithms.
type (
	// BFSResult is the output of BFS.
	BFSResult = algo.BFSResult
	// BCResult is the output of BC (single-source betweenness).
	BCResult = algo.BCResult
	// CCResult is the output of ConnectedComponents.
	CCResult = algo.CCResult
	// SSSPResult is the output of BellmanFord.
	SSSPResult = algo.SSSPResult
	// PageRankResult is the output of PageRank and PageRankDelta.
	PageRankResult = algo.PageRankResult
	// PageRankOptions configures PageRank.
	PageRankOptions = algo.PageRankOptions
	// RadiiResult is the output of Radii.
	RadiiResult = algo.RadiiResult
	// RadiiOptions configures Radii.
	RadiiOptions = algo.RadiiOptions
	// KCoreResult is the output of KCore.
	KCoreResult = algo.KCoreResult
	// MISResult is the output of MIS.
	MISResult = algo.MISResult
	// BCApproxResult is the output of BCApprox.
	BCApproxResult = algo.BCApproxResult
	// MatchingResult is the output of MaximalMatching.
	MatchingResult = algo.MatchingResult
	// ColoringResult is the output of Coloring.
	ColoringResult = algo.ColoringResult
	// SCCResult is the output of SCC.
	SCCResult = algo.SCCResult
	// EccentricityResult is the output of TwoPassEccentricity.
	EccentricityResult = algo.EccentricityResult
	// ForestResult is the output of SpanningForest.
	ForestResult = algo.ForestResult
	// APPRResult is the output of APPR.
	APPRResult = algo.APPRResult
	// SweepCutResult is the output of SweepCut / LocalCluster.
	SweepCutResult = algo.SweepCutResult
	// DensestResult is the output of DensestSubgraph.
	DensestResult = algo.DensestResult

	// PanicError is a panic captured inside a parallel worker, carrying
	// the original panic value and stack.
	PanicError = parallel.PanicError
	// RoundError wraps an interruption error with the algorithm name and
	// the round it was interrupted after; Unwrap exposes the cause.
	RoundError = algo.RoundError
)

// InfDist is the distance of unreachable vertices in SSSPResult.
const InfDist = algo.InfDist

// WithParallelism returns a context that caps the worker goroutines used
// by every ctx-taking function run under it at p, letting concurrent
// computations share one machine with different worker budgets. The
// effective count is min(p, Parallelism()).
func WithParallelism(ctx context.Context, p int) context.Context {
	return parallel.WithProcs(ctx, p)
}

// Parallelism reports the process-wide worker count. Cap it per
// computation with WithParallelism or Options.Procs.
func Parallelism() int { return parallel.Procs() }

// contain runs a ctx-first algorithm and returns a panic raised anywhere
// inside it — on the calling goroutine, between its parallel passes — as a
// *PanicError (a worker's panic already comes back as one), so these
// functions report every failure as an error and never panic.
func contain[T any](run func() (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = parallel.AsPanicError(r)
		}
	}()
	return run()
}

// BFS runs breadth-first search from source (paper §5.1). Parents is a
// valid partial BFS forest on interruption.
func BFS(ctx context.Context, g View, source uint32, opts Options) (*BFSResult, error) {
	return contain(func() (*BFSResult, error) { return algo.BFSCtx(ctx, g, source, opts) })
}

// BFSLevels returns per-vertex BFS distances from source (-1 when
// unreachable).
func BFSLevels(ctx context.Context, g View, source uint32, opts Options) ([]int32, error) {
	return contain(func() ([]int32, error) { return algo.BFSLevelsCtx(ctx, g, source, opts) })
}

// BC runs single-source betweenness centrality (paper §5.2).
func BC(ctx context.Context, g View, source uint32, opts Options) (*BCResult, error) {
	return contain(func() (*BCResult, error) { return algo.BCCtx(ctx, g, source, opts) })
}

// BCApprox estimates whole-graph betweenness centrality by sampling k BC
// sources and scaling (extension); on interruption the estimator is
// rescaled over the sources that completed.
func BCApprox(ctx context.Context, g View, k int, seed uint64, opts Options) (*BCApproxResult, error) {
	return contain(func() (*BCApproxResult, error) { return algo.BCApproxCtx(ctx, g, k, seed, opts) })
}

// Radii estimates per-vertex eccentricities with K simultaneous BFS
// sharing 64-bit visit vectors (paper §5.3); estimates remain valid lower
// bounds on interruption.
func Radii(ctx context.Context, g View, opts RadiiOptions) (*RadiiResult, error) {
	return contain(func() (*RadiiResult, error) { return algo.RadiiCtx(ctx, g, opts) })
}

// RadiiMulti extends Radii beyond 64 sources by batching 64-way
// shared-bit-vector multi-BFS runs (extension).
func RadiiMulti(ctx context.Context, g View, k int, seed uint64, opts Options) (*RadiiResult, error) {
	return contain(func() (*RadiiResult, error) { return algo.RadiiMultiCtx(ctx, g, k, seed, opts) })
}

// DefaultRadiiOptions returns the paper's parameters (K=64).
func DefaultRadiiOptions() RadiiOptions { return algo.DefaultRadiiOptions() }

// TwoPassEccentricity estimates per-vertex eccentricities with two rounds
// of shared-bit-vector multi-BFS: a random sample, then the periphery the
// first pass discovered (extension).
func TwoPassEccentricity(ctx context.Context, g View, k int, seed uint64, opts Options) (*EccentricityResult, error) {
	return contain(func() (*EccentricityResult, error) { return algo.TwoPassEccentricityCtx(ctx, g, k, seed, opts) })
}

// ConnectedComponents runs label-propagation components (paper §5.4);
// Labels form a valid coarsening on interruption.
func ConnectedComponents(ctx context.Context, g View, opts Options) (*CCResult, error) {
	return contain(func() (*CCResult, error) { return algo.ConnectedComponentsCtx(ctx, g, opts) })
}

// PageRank runs power iteration with damping and a dangling-mass
// correction (paper §5.5); Ranks are those of the last fully completed
// iteration on interruption.
func PageRank(ctx context.Context, g View, opts PageRankOptions) (*PageRankResult, error) {
	return contain(func() (*PageRankResult, error) { return algo.PageRankCtx(ctx, g, opts) })
}

// PageRankDelta runs the frontier-based approximate variant (paper §5.5):
// only vertices whose rank moved by more than delta (relative to their
// rank) remain active.
func PageRankDelta(ctx context.Context, g View, opts PageRankOptions, delta float64) (*PageRankResult, error) {
	return contain(func() (*PageRankResult, error) { return algo.PageRankDeltaCtx(ctx, g, opts, delta) })
}

// DefaultPageRankOptions returns the paper's PageRank parameters.
func DefaultPageRankOptions() PageRankOptions { return algo.DefaultPageRankOptions() }

// BellmanFord runs frontier-based single-source shortest paths (paper
// §5.6), detecting reachable negative cycles; Dist holds valid distance
// upper bounds on interruption.
func BellmanFord(ctx context.Context, g View, source uint32, opts Options) (*SSSPResult, error) {
	return contain(func() (*SSSPResult, error) { return algo.BellmanFordCtx(ctx, g, source, opts) })
}

// KCore computes the k-core decomposition by parallel peeling
// (extension); Coreness is exact for already-peeled vertices on
// interruption.
func KCore(ctx context.Context, g View, opts Options) (*KCoreResult, error) {
	return contain(func() (*KCoreResult, error) { return algo.KCoreCtx(ctx, g, opts) })
}

// MIS computes a maximal independent set with priority-based parallel
// greedy selection (extension); InSet is a valid (possibly not yet
// maximal) independent set on interruption.
func MIS(ctx context.Context, g View, seed uint64, opts Options) (*MISResult, error) {
	return contain(func() (*MISResult, error) { return algo.MISCtx(ctx, g, seed, opts) })
}

// SCC computes strongly connected components of a directed graph with
// parallel forward-backward decomposition (extension); Labels is exact
// for components finished before an interruption.
func SCC(ctx context.Context, g View, opts Options) (*SCCResult, error) {
	return contain(func() (*SCCResult, error) { return algo.SCCCtx(ctx, g, opts) })
}

// TriangleCount counts triangles of a symmetric simple graph (extension).
// An interrupted count is 0: a global count has no useful partial result.
func TriangleCount(ctx context.Context, g View) (int64, error) {
	return contain(func() (int64, error) { return algo.TriangleCountCtx(ctx, g) })
}

// LocalClusteringCoefficients returns each vertex's triangle-closure
// fraction on a symmetric simple graph (extension); nil on interruption.
func LocalClusteringCoefficients(ctx context.Context, g View) ([]float64, error) {
	return contain(func() ([]float64, error) { return algo.LocalClusteringCoefficients(ctx, g) })
}

// MaximalMatching computes a maximal matching of a symmetric simple graph
// by parallel greedy local-maxima selection (extension); Partner is a
// valid, possibly not yet maximal, matching on interruption.
func MaximalMatching(ctx context.Context, g View, seed uint64) (*MatchingResult, error) {
	return contain(func() (*MatchingResult, error) { return algo.MaximalMatching(ctx, g, seed) })
}

// Coloring computes a proper vertex coloring with deterministic parallel
// greedy coloring (extension); uses at most maxdegree+1 colors. Colors is
// a proper partial coloring on interruption.
func Coloring(ctx context.Context, g View, seed uint64, opts Options) (*ColoringResult, error) {
	return contain(func() (*ColoringResult, error) { return algo.Coloring(ctx, g, seed, opts) })
}

// SpanningForest computes a spanning forest of a symmetric graph via BFS
// waves (extension); the forest of the vertices reached on interruption.
func SpanningForest(ctx context.Context, g View, opts Options) (*ForestResult, error) {
	return contain(func() (*ForestResult, error) { return algo.SpanningForest(ctx, g, opts) })
}

// DensestSubgraph computes a 2-approximate densest subgraph as the densest
// k-core, read off KCore's coreness in one pass over the edges (extension).
// On interruption Vertices is nil and Density is the whole graph's, the
// 0-core's, which needs no peel.
func DensestSubgraph(ctx context.Context, g View, opts Options) (*DensestResult, error) {
	return contain(func() (*DensestResult, error) { return algo.DensestSubgraph(ctx, g, opts) })
}

// APPR computes an approximate personalized PageRank vector from a seed
// with the local push algorithm (extension after Shun et al., VLDB 2016);
// the vector after the pushes made so far on interruption.
func APPR(ctx context.Context, g View, seed uint32, alpha, eps float64) (*APPRResult, error) {
	return contain(func() (*APPRResult, error) { return algo.APPR(ctx, g, seed, alpha, eps) })
}

// SweepCut scans a PPR vector for the best-conductance prefix cluster.
func SweepCut(ctx context.Context, g View, p map[uint32]float64) (*SweepCutResult, error) {
	return contain(func() (*SweepCutResult, error) { return algo.SweepCut(ctx, g, p) })
}

// LocalCluster finds a low-conductance cluster around the seed via APPR
// plus a sweep cut (extension).
func LocalCluster(ctx context.Context, g View, seed uint32, alpha, eps float64) (*SweepCutResult, error) {
	return contain(func() (*SweepCutResult, error) { return algo.LocalCluster(ctx, g, seed, alpha, eps) })
}
