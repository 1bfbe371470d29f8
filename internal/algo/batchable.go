package algo

import (
	"context"
	"fmt"

	"ligra/internal/graph"
)

// This file defines the contract between the serving-side batch collector
// (internal/server/batch) and the algorithm layer: which algorithms can
// share one ClusterBFS sweep, what per-vertex probes each needs, and how a
// per-source slice of a ClusterBFSResult becomes the same RunResult the
// unbatched runner produces. The single-query runners for reach and
// landmarks hand the same BatchResult one BFS's level array as a
// one-source level matrix, so batched and unbatched answers agree by
// construction rather than by parallel maintenance.

// Batchable reports whether the named algorithm's queries can be folded
// into a shared ClusterBFS sweep: each query contributes one source bit,
// and its entire answer is recoverable from that source's slice of the
// sweep (levels at probes, reach counts, depth).
func Batchable(name string) bool {
	switch name {
	case "bfs", "reach", "landmarks":
		return true
	}
	return false
}

// BatchProbes returns the vertices whose per-source levels the named
// algorithm needs recorded during the sweep (nil when aggregates
// suffice).
func BatchProbes(name string, p Params) []uint32 {
	switch name {
	case "reach":
		return []uint32{p.Target}
	case "landmarks":
		return p.Landmarks
	}
	return nil
}

// MaxLandmarks bounds the landmark list: each landmark is a probe row
// carried through the whole sweep, and 64 matches the source budget.
const MaxLandmarks = 64

// BatchValidate checks the algorithm-specific parameters of a query
// against a graph of n vertices: a batchable query's targets and
// landmarks, and backend "spmv", which only bfs, pagerank and triangles
// accept (all three run edgeMap under it). It is shared by the
// single-query runners and the server's query planning, so both reject
// with identical errors.
func BatchValidate(name string, n int, p Params) error {
	switch name {
	case "reach":
		if int(p.Target) >= n {
			return fmt.Errorf("target vertex %d out of range (graph has %d vertices)", p.Target, n)
		}
	case "landmarks":
		if len(p.Landmarks) == 0 {
			return fmt.Errorf("landmarks algorithm requires a non-empty landmarks list")
		}
		if len(p.Landmarks) > MaxLandmarks {
			return fmt.Errorf("too many landmarks: %d (max %d)", len(p.Landmarks), MaxLandmarks)
		}
		for _, l := range p.Landmarks {
			if int(l) >= n {
				return fmt.Errorf("landmark vertex %d out of range (graph has %d vertices)", l, n)
			}
		}
	}
	if p.Backend == BackendSpMV && name != "bfs" && name != "pagerank" && name != "triangles" {
		return fmt.Errorf("algorithm %q has no spmv kernel (backends: bfs, pagerank, triangles)", name)
	}
	return nil
}

// levelsRunner is the single-query runner of reach and landmarks: one
// BFSLevelsCtx — a lone query costs what a bfs costs, with no visit words,
// fold pass or aggregate pass — read through BatchResult as the
// one-source level matrix it is.
func levelsRunner(name string) runFunc {
	return func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
		if err := BatchValidate(name, g.NumVertices(), p); err != nil {
			return RunResult{}, err
		}
		levels, err := BFSLevelsCtx(ctx, g, p.Source, p.EdgeMapOptions())
		res := &ClusterBFSResult{Sources: []uint32{p.Source}, Levels: levels, n: len(levels)}
		return BatchResult(name, res, 0, p), err
	}
}

// bfsRunResult is the bfs runner's report, whichever execution (one BFS
// or a shared sweep) produced the counts.
func bfsRunResult(source uint32, visited, rounds int) RunResult {
	return RunResult{
		Summary: fmt.Sprintf("BFS from %d: visited %d vertices in %d rounds", source, visited, rounds),
		Details: map[string]any{"source": source, "visited": visited, "rounds": rounds, "backend": BackendEdgeMap},
	}
}

// BatchResult extracts source i's answer from a (possibly shared)
// ClusterBFS sweep as the RunResult the named algorithm reports, so a
// batched caller cannot tell it shared a sweep.
func BatchResult(name string, res *ClusterBFSResult, i int, p Params) RunResult {
	switch name {
	case "bfs":
		return bfsRunResult(p.Source, int(res.Reached[i]), int(res.Depth[i]))
	case "reach":
		dist := res.LevelTo(i, p.Target)
		if dist >= 0 {
			return RunResult{
				Summary: fmt.Sprintf("Reach from %d to %d: reachable (distance %d)", p.Source, p.Target, dist),
				Details: map[string]any{"source": p.Source, "target": p.Target, "reachable": true, "distance": int64(dist)},
			}
		}
		return RunResult{
			Summary: fmt.Sprintf("Reach from %d to %d: unreachable", p.Source, p.Target),
			Details: map[string]any{"source": p.Source, "target": p.Target, "reachable": false, "distance": int64(-1)},
		}
	case "landmarks":
		dists := make([]int64, len(p.Landmarks))
		reachable := 0
		for j, l := range p.Landmarks {
			d := res.LevelTo(i, l)
			dists[j] = int64(d)
			if d >= 0 {
				reachable++
			}
		}
		return RunResult{
			Summary: fmt.Sprintf("Landmarks from %d: %d/%d reachable", p.Source, reachable, len(p.Landmarks)),
			Details: map[string]any{"source": p.Source, "landmarks": len(p.Landmarks), "reachable": reachable, "distances": dists},
		}
	}
	return RunResult{Summary: fmt.Sprintf("%s: no batch extraction", name)}
}

// EstimateBytes approximates the RunResult's heap footprint for the
// result cache's byte budget: the summary string plus each detail's key
// and boxed value (slices counted element-wise).
func (r RunResult) EstimateBytes() int64 {
	b := int64(len(r.Summary))
	for k, v := range r.Details {
		b += int64(len(k)) + 48
		switch s := v.(type) {
		case []int64:
			b += 8 * int64(len(s))
		case []int32:
			b += 4 * int64(len(s))
		case []float64:
			b += 8 * int64(len(s))
		case string:
			b += int64(len(s))
		}
	}
	return b
}
