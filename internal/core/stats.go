package core

import "sync/atomic"

// TraversalStats is the process-wide counter set behind the edgeMap
// direction-optimization instrumentation: every EdgeMap call records
// which representation it chose (the paper's sparse-vs-dense switch,
// §4.2), how large the input frontier was, and how many frontier
// out-edges the |U| + outDegrees(U) > threshold heuristic weighed. The
// counters make the switch observable — through ligra-run -stats,
// ligra-bench reports, and ligra-serve's /metrics endpoint — instead of
// inferable from timings.
//
// Recording is a handful of atomic adds per EdgeMap *call* (one call per
// algorithm round, never per edge), so it stays enabled unconditionally.
// All methods are safe for concurrent use.
type TraversalStats struct {
	calls, sparse, dense, denseForward atomic.Int64
	seqRounds                          atomic.Int64
	frontierVertices                   atomic.Int64
	outputVertices                     atomic.Int64
	edgesScanned                       atomic.Int64
}

// globalStats collects across every traversal in the process.
var globalStats TraversalStats

func (t *TraversalStats) record(frontier int, outDeg int64, mode Mode, seq bool, output int) {
	t.calls.Add(1)
	switch mode {
	case Forward:
		t.denseForward.Add(1)
	case Pull:
		t.dense.Add(1)
	default:
		t.sparse.Add(1)
	}
	if seq {
		t.seqRounds.Add(1)
	}
	t.frontierVertices.Add(int64(frontier))
	t.outputVertices.Add(int64(output))
	t.edgesScanned.Add(outDeg)
}

// StatsSnapshot is a point-in-time copy of the traversal counters, in the
// JSON shape served by ligra-serve's /metrics and written by ligra-bench
// -json.
type StatsSnapshot struct {
	// Calls is the total number of EdgeMap invocations.
	Calls int64 `json:"calls"`
	// Sparse, Dense and DenseForward count the per-call representation
	// decisions; they sum to Calls.
	Sparse       int64 `json:"sparse"`
	Dense        int64 `json:"dense"`
	DenseForward int64 `json:"dense_forward"`
	// SeqRounds counts the sparse rounds run on the calling goroutine:
	// those whose |U| + outDegrees(U) fell at or below smallRoundWork, so
	// edgeMapSparse asked for one chunk and nothing was dispatched to the
	// pool. Every such round is also counted in Sparse (it is an
	// execution strategy, not a representation), so the
	// Sparse+Dense+DenseForward = Calls invariant is unchanged.
	SeqRounds int64 `json:"seq_rounds"`
	// FrontierVertices sums the input frontier sizes (|U| per call).
	FrontierVertices int64 `json:"frontier_vertices"`
	// OutputVertices sums the output frontier sizes.
	OutputVertices int64 `json:"output_vertices"`
	// EdgesScanned sums the frontier out-degrees weighed by the direction
	// heuristic (outDegrees(U) per call). The degree sum short-circuits
	// once it settles the sparse-vs-dense decision, so for frontiers that
	// go dense this is a lower bound on outDegrees(U), not the exact total.
	EdgesScanned int64 `json:"edges_scanned"`
}

// SnapshotStats returns the current process-wide traversal counters.
func SnapshotStats() StatsSnapshot {
	return StatsSnapshot{
		Calls:            globalStats.calls.Load(),
		Sparse:           globalStats.sparse.Load(),
		Dense:            globalStats.dense.Load(),
		DenseForward:     globalStats.denseForward.Load(),
		SeqRounds:        globalStats.seqRounds.Load(),
		FrontierVertices: globalStats.frontierVertices.Load(),
		OutputVertices:   globalStats.outputVertices.Load(),
		EdgesScanned:     globalStats.edgesScanned.Load(),
	}
}

// ResetStats zeroes the process-wide traversal counters (test and
// benchmark isolation).
func ResetStats() {
	globalStats.calls.Store(0)
	globalStats.sparse.Store(0)
	globalStats.dense.Store(0)
	globalStats.denseForward.Store(0)
	globalStats.seqRounds.Store(0)
	globalStats.frontierVertices.Store(0)
	globalStats.outputVertices.Store(0)
	globalStats.edgesScanned.Store(0)
}

// Sub returns the counter-wise difference s - prev, for reporting the
// traversal activity of one bounded region (take a snapshot before and
// after, subtract).
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Calls:            s.Calls - prev.Calls,
		Sparse:           s.Sparse - prev.Sparse,
		Dense:            s.Dense - prev.Dense,
		DenseForward:     s.DenseForward - prev.DenseForward,
		SeqRounds:        s.SeqRounds - prev.SeqRounds,
		FrontierVertices: s.FrontierVertices - prev.FrontierVertices,
		OutputVertices:   s.OutputVertices - prev.OutputVertices,
		EdgesScanned:     s.EdgesScanned - prev.EdgesScanned,
	}
}
