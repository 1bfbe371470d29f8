package ligra

import (
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
	// DeltaSteppingResult is the output of DeltaStepping.
	DeltaSteppingResult = algo.DeltaSteppingResult
	// BCApproxResult is the output of BCApprox.
	BCApproxResult = algo.BCApproxResult
	// MatchingResult is the output of MaximalMatching.
	MatchingResult = algo.MatchingResult
	// ColoringResult is the output of Coloring.
	ColoringResult = algo.ColoringResult
	// SCCResult is the output of SCC.
	SCCResult = algo.SCCResult
	// LDDResult is the output of LDD.
	LDDResult = algo.LDDResult
	// EccentricityResult is the output of TwoPassEccentricity.
	EccentricityResult = algo.EccentricityResult
	// ForestResult is the output of SpanningForest.
	ForestResult = algo.ForestResult
	// APPRResult is the output of APPR.
	APPRResult = algo.APPRResult
	// SweepCutResult is the output of SweepCut / LocalCluster.
	SweepCutResult = algo.SweepCutResult
)

// InfDist is the distance of unreachable vertices in SSSPResult.
const InfDist = algo.InfDist

// BFS runs breadth-first search from source (paper §5.1).
func BFS(g View, source uint32, opts Options) *BFSResult {
	return algo.BFS(g, source, opts)
}

// BFSLevels returns per-vertex BFS distances from source (-1 when
// unreachable).
func BFSLevels(g View, source uint32, opts Options) []int32 {
	return algo.BFSLevels(g, source, opts)
}

// BC runs single-source betweenness centrality (paper §5.2).
func BC(g View, source uint32, opts Options) *BCResult {
	return algo.BC(g, source, opts)
}

// Radii estimates per-vertex eccentricities with K simultaneous BFS
// sharing 64-bit visit vectors (paper §5.3).
func Radii(g View, opts RadiiOptions) *RadiiResult {
	return algo.Radii(g, opts)
}

// DefaultRadiiOptions returns the paper's parameters (K=64).
func DefaultRadiiOptions() RadiiOptions { return algo.DefaultRadiiOptions() }

// ConnectedComponents runs label-propagation components (paper §5.4).
func ConnectedComponents(g View, opts Options) *CCResult {
	return algo.ConnectedComponents(g, opts)
}

// PageRank runs power iteration with damping and a dangling-mass
// correction (paper §5.5).
func PageRank(g View, opts PageRankOptions) *PageRankResult {
	return algo.PageRank(g, opts)
}

// PageRankDelta runs the frontier-based approximate variant (paper §5.5):
// only vertices whose rank moved by more than delta (relative to their
// rank) remain active.
func PageRankDelta(g View, opts PageRankOptions, delta float64) *PageRankResult {
	return algo.PageRankDelta(g, opts, delta)
}

// DefaultPageRankOptions returns the paper's PageRank parameters.
func DefaultPageRankOptions() PageRankOptions { return algo.DefaultPageRankOptions() }

// BellmanFord runs frontier-based single-source shortest paths (paper
// §5.6), detecting reachable negative cycles.
func BellmanFord(g View, source uint32, opts Options) *SSSPResult {
	return algo.BellmanFord(g, source, opts)
}

// KCore computes the k-core decomposition by parallel peeling (extension).
func KCore(g View, opts Options) *KCoreResult {
	return algo.KCore(g, opts)
}

// MIS computes a maximal independent set with priority-based parallel
// greedy selection (extension).
func MIS(g View, seed uint64, opts Options) *MISResult {
	return algo.MIS(g, seed, opts)
}

// TriangleCount counts triangles of a symmetric simple graph (extension).
func TriangleCount(g View) int64 { return algo.TriangleCount(g) }

// DeltaStepping computes single-source shortest paths with non-negative
// weights using bucketed delta-stepping on top of edgeMap (extension
// after Julienne; delta <= 0 picks a heuristic bucket width).
func DeltaStepping(g View, source uint32, delta int64, opts Options) (*DeltaSteppingResult, error) {
	return algo.DeltaStepping(g, source, delta, opts)
}

// BCApprox estimates whole-graph betweenness centrality by sampling k BC
// sources and scaling (extension).
func BCApprox(g View, k int, seed uint64, opts Options) *BCApproxResult {
	return algo.BCApprox(g, k, seed, opts)
}

// LocalClusteringCoefficients returns each vertex's triangle-closure
// fraction on a symmetric simple graph (extension).
func LocalClusteringCoefficients(g View) []float64 {
	return algo.LocalClusteringCoefficients(g)
}

// MaximalMatching computes a maximal matching of a symmetric simple graph
// by parallel greedy local-maxima selection (extension).
func MaximalMatching(g View, seed uint64) *MatchingResult {
	return algo.MaximalMatching(g, seed)
}

// Coloring computes a proper vertex coloring with deterministic parallel
// greedy coloring (extension); uses at most maxdegree+1 colors.
func Coloring(g View, seed uint64, opts Options) *ColoringResult {
	return algo.Coloring(g, seed, opts)
}

// SCC computes strongly connected components of a directed graph with
// parallel forward-backward decomposition (extension).
func SCC(g View, opts Options) *SCCResult {
	return algo.SCC(g, opts)
}

// LDD computes a low-diameter decomposition with exponential start-time
// shifts (Miller-Peng-Xu style; extension). Larger beta yields more,
// smaller clusters.
func LDD(g View, beta float64, seed uint64, opts Options) *LDDResult {
	return algo.LDD(g, beta, seed, opts)
}

// ConnectedComponentsLDD computes connected components by repeated
// LDD-based contraction — the expected linear-work connectivity algorithm
// of Shun, Dhulipala and Blelloch (extension).
func ConnectedComponentsLDD(g View, beta float64, seed uint64, opts Options) *CCResult {
	return algo.ConnectedComponentsLDD(g, beta, seed, opts)
}

// TwoPassEccentricity estimates per-vertex eccentricities with two rounds
// of shared-bit-vector multi-BFS: a random sample, then the periphery the
// first pass discovered (extension).
func TwoPassEccentricity(g View, k int, seed uint64, opts Options) *EccentricityResult {
	return algo.TwoPassEccentricity(g, k, seed, opts)
}

// SpanningForest computes a spanning forest of a symmetric graph via BFS
// waves (extension).
func SpanningForest(g View, opts Options) *ForestResult {
	return algo.SpanningForest(g, opts)
}

// RadiiMulti extends Radii beyond 64 sources by batching 64-way
// shared-bit-vector multi-BFS runs (extension).
func RadiiMulti(g View, k int, seed uint64, opts Options) *RadiiResult {
	return algo.RadiiMulti(g, k, seed, opts)
}

// APPR computes an approximate personalized PageRank vector from a seed
// with the local push algorithm (extension after Shun et al., VLDB 2016).
func APPR(g View, seed uint32, alpha, eps float64) (*APPRResult, error) {
	return algo.APPR(g, seed, alpha, eps)
}

// SweepCut scans a PPR vector for the best-conductance prefix cluster.
func SweepCut(g View, p map[uint32]float64) *SweepCutResult {
	return algo.SweepCut(g, p)
}

// LocalCluster finds a low-conductance cluster around the seed via APPR
// plus a sweep cut (extension).
func LocalCluster(g View, seed uint32, alpha, eps float64) (*SweepCutResult, error) {
	return algo.LocalCluster(g, seed, alpha, eps)
}

// Parallelism reports the process-wide worker count. Cap it per
// computation with WithParallelism or Options.Procs.
func Parallelism() int { return parallel.Procs() }

// DensestResult is the output of DensestSubgraph.
type DensestResult = algo.DensestResult

// DensestSubgraph computes a 2-approximate densest subgraph by Charikar
// peeling over the bucket structure (extension).
func DensestSubgraph(g View, opts Options) *DensestResult {
	return algo.DensestSubgraph(g, opts)
}
