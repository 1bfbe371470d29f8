// Package ligra is a Go implementation of Ligra, the lightweight
// shared-memory graph processing framework of Shun and Blelloch (PPoPP
// 2013). It exposes the paper's programming interface — vertex subsets and
// the direction-optimizing edgeMap / vertexMap operators — together with
// graph construction, synthetic generators, byte-compressed storage
// (Ligra+), and the paper's applications (BFS, betweenness centrality,
// eccentricity estimation, connected components, PageRank, Bellman-Ford)
// plus k-core, maximal independent set and triangle counting.
//
// # Programming model
//
// A computation maintains a frontier (VertexSubset) and repeatedly applies
// EdgeMap: for every edge (s, d) with s in the frontier and Cond(d) true,
// an update function runs and d joins the output frontier if it returns
// true. EdgeMap transparently switches between a sparse (push) traversal
// over the frontier's out-edges and a dense (pull) traversal over all
// in-edges, whichever is cheaper for the current frontier — the
// generalization of direction-optimizing BFS that is the paper's central
// contribution.
//
// # Cancellation
//
// Every operation has one spelling. Every algorithm and every operator
// that runs a parallel loop takes a context.Context as its first argument
// and observes it; the rest (constructors, graph building, accessors)
// cannot be interrupted. The context (nil is treated as
// context.Background()) reaches every parallel loop of the computation:
// a WithParallelism cap bounds each of them, and a cancelled or expired
// context stops the computation within roughly one chunk of parallel
// work, while an uncancellable one such as context.Background() costs no
// more than nil. An interrupted algorithm returns its partial result —
// each result type documents what "partial" means — together with a
// *RoundError that wraps the cause, so errors.Is(err,
// context.DeadlineExceeded) and friends see through it. A panic inside
// any parallel region is returned as a *PanicError (the algorithms return
// any panic raised inside them that way).
//
// # Quick start
//
//	ctx := context.Background()
//	g, _ := ligra.RMAT(16, 16, ligra.PBBSRMAT, 42)
//	res, err := ligra.BFS(ctx, g, 0, ligra.Options{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println("reached", res.Visited, "vertices in", res.Rounds, "rounds")
//
// See examples/ for complete programs and cmd/ligra-bench for the
// reproduction of the paper's evaluation.
package ligra

import (
	"context"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// Re-exported core types. These aliases make the internal packages' types
// part of the public API surface without duplicating them.
type (
	// VertexSubset is a set of vertices with interchangeable sparse and
	// dense representations (Ligra's vertexSubset).
	VertexSubset = core.VertexSubset
	// EdgeFuncs bundles the Update / UpdateAtomic / Cond functions passed
	// to EdgeMap (Ligra's F and C), plus the optional PullRow: a row
	// kernel that runs a dense round's in-row for one destination in a
	// single call instead of one Update call per edge, on every graph
	// representation (under DenseEarlyExit the row may come in two
	// pieces; see core.EdgeFuncs and docs/PERFORMANCE.md §3 for the
	// contract).
	EdgeFuncs = core.EdgeFuncs
	// Options tunes one EdgeMap call (mode, threshold, dedup, tracing).
	Options = core.Options
	// Mode forces a traversal strategy.
	Mode = core.Mode
	// Trace records per-round traversal decisions.
	Trace = core.Trace
	// TraceEntry is one EdgeMap invocation's record.
	TraceEntry = core.TraceEntry

	// Graph is the CSR graph representation.
	Graph = graph.Graph
	// View is the representation-independent graph interface EdgeMap
	// traverses (CSR, compressed and delta-overlaid graphs implement it).
	// Implementing View means writing two row methods, OutRow and InRow,
	// over a caller's Row scratch, plus counts and flags; its one per-edge
	// iterator is a temporary shim, the same loop over OutRow.
	View = graph.View
	// Row is a caller's per-goroutine scratch for View's OutRow and InRow.
	Row = graph.Row
	// Edge is a directed edge used during construction.
	Edge = graph.Edge
	// BuildOptions controls FromEdges.
	BuildOptions = graph.BuildOptions
	// Stats summarizes graph structure.
	Stats = graph.Stats
)

// Traversal modes (see Options.Mode).
const (
	// Auto applies the paper's |U| + outDegrees(U) > |E|/20 heuristic.
	Auto = core.Auto
	// ForceSparse always pushes over the frontier's out-edges.
	ForceSparse = core.ForceSparse
	// ForceDense always pulls over all vertices' in-edges.
	ForceDense = core.ForceDense
)

// None is the sentinel vertex ID (2^32-1).
const None = core.None

// DefaultThresholdDenominator is the paper's switch constant (20): edgeMap
// goes dense when |U| + outDegrees(U) > |E|/20.
const DefaultThresholdDenominator = core.DefaultThresholdDenominator

// EdgeMap applies f over the edges out of u and returns the subset of
// destinations whose update returned true, choosing the sparse or dense
// traversal per the options. It returns a nil frontier and an error if
// the traversal was interrupted or a worker panicked. See core.EdgeMap.
func EdgeMap(ctx context.Context, g View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	return core.EdgeMap(ctx, g, u, f, opts)
}

// VertexMap applies fn to every vertex in u in parallel.
func VertexMap(ctx context.Context, u *VertexSubset, fn func(v uint32)) error {
	return core.VertexMap(ctx, u, fn)
}

// VertexFilter returns the members of u satisfying pred.
func VertexFilter(ctx context.Context, u *VertexSubset, pred func(v uint32) bool) (*VertexSubset, error) {
	return contain(func() (*VertexSubset, error) { return core.VertexFilter(ctx, u, pred) })
}

// NewEmpty returns the empty subset over n vertices.
func NewEmpty(n int) *VertexSubset { return core.NewEmpty(n) }

// NewSingle returns {v} over n vertices.
func NewSingle(n int, v uint32) *VertexSubset { return core.NewSingle(n, v) }

// NewSparse wraps an ID array as a subset (takes ownership).
func NewSparse(n int, ids []uint32) *VertexSubset { return core.NewSparse(n, ids) }

// NewAll returns the full vertex set.
func NewAll(n int) *VertexSubset { return core.NewAll(n) }

// NewFromFunc returns the subset of vertices satisfying pred.
func NewFromFunc(ctx context.Context, n int, pred func(v uint32) bool) (*VertexSubset, error) {
	return contain(func() (*VertexSubset, error) { return core.NewFromFunc(ctx, n, pred) })
}

// TraversalStats is a point-in-time copy of the process-wide traversal
// counters: EdgeMap calls, the sparse / dense / dense-forward decision
// split, frontier and output sizes, and the edge volume weighed by the
// direction heuristic. See SnapshotTraversalStats.
type TraversalStats = core.StatsSnapshot

// SnapshotTraversalStats returns the current process-wide traversal
// counters. Counters accumulate across every EdgeMap call in the process;
// to attribute activity to one region, snapshot before and after and use
// TraversalStats.Sub. Safe for concurrent use.
func SnapshotTraversalStats() TraversalStats { return core.SnapshotStats() }

// ResetTraversalStats zeroes the process-wide traversal counters.
func ResetTraversalStats() { core.ResetStats() }

// SchedulerStats is a point-in-time copy of the persistent worker-pool
// scheduler's counters: pool size, parallel-call dispatches versus
// inline runs (including the sequential cutoff), and worker park/wake
// counts. See SnapshotSchedulerStats and docs/PERFORMANCE.md.
type SchedulerStats = parallel.SchedulerStats

// SnapshotSchedulerStats returns the current process-wide scheduler
// counters. To attribute activity to one region, snapshot before and
// after and use SchedulerStats.Sub. Safe for concurrent use.
func SnapshotSchedulerStats() SchedulerStats { return parallel.SchedulerSnapshot() }

// ResetSchedulerStats zeroes the scheduler's dispatch/inline/park/wake
// counters (the pool-size gauge is untouched).
func ResetSchedulerStats() { parallel.ResetSchedulerStats() }
