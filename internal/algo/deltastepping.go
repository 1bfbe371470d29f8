package algo

import (
	"context"
	"errors"
	"sync/atomic"

	"ligra/internal/atomicx"
	"ligra/internal/buckets"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// DeltaSteppingResult carries the output of delta-stepping SSSP.
type DeltaSteppingResult struct {
	// Dist[v] is the shortest-path distance from the source (InfDist if
	// unreachable).
	Dist []int64
	// Buckets is the number of distance buckets processed.
	Buckets int
	// Phases is the total number of edgeMap phases (light fixpoint rounds
	// plus one heavy round per non-empty bucket).
	Phases int
}

// DeltaSteppingCtx computes single-source shortest paths with non-negative
// integer weights using the delta-stepping algorithm of Meyer and
// Sanders, expressed on top of edgeMap with lazy bucketing — the workload
// that motivated the Julienne extension of Ligra (Dhulipala, Blelloch,
// Shun, SPAA 2017). Vertices are grouped into buckets of width delta by
// tentative distance; bucket k is relaxed to a fixpoint over light edges
// (weight <= delta), then its settled vertices relax their heavy edges
// once.
//
// delta <= 0 selects a simple heuristic (the average edge weight + 1).
// Negative edge weights are rejected.
//
// Cancellation is observed between buckets, between light-edge fixpoint
// phases, and at chunk granularity inside every edgeMap. On interruption
// Dist holds valid upper bounds on the true distances (writeMin only
// tightens), returned with a *RoundError whose Round counts completed
// edgeMap phases.
func DeltaSteppingCtx(ctx context.Context, g graph.View, source uint32, delta int64, opts core.Options) (*DeltaSteppingResult, error) {
	n := g.NumVertices()
	dist := make([]int64, n)
	nBuckets, phases := 0, 0
	partial := func(err error) (*DeltaSteppingResult, error) {
		return &DeltaSteppingResult{Dist: dist, Buckets: nBuckets, Phases: phases},
			roundErr("delta-stepping", phases, err)
	}
	err := fill(ctx, dist, InfDist)
	dist[source] = 0
	if err != nil {
		return partial(err)
	}
	// One pass rejects negative weights and sums the rest for the delta
	// heuristic.
	var negErr atomic.Bool
	sum, err := parallel.SumFunc(ctx, n, func(i int) int64 {
		var s int64
		g.OutNeighbors(uint32(i), func(_ uint32, w int32) bool {
			if w < 0 {
				negErr.Store(true)
				return false
			}
			s += int64(w)
			return true
		})
		return s
	})
	if err != nil {
		return partial(err)
	}
	if negErr.Load() {
		return nil, errors.New("algo: delta-stepping requires non-negative weights")
	}
	if delta <= 0 {
		delta = sum/max(g.NumEdges(), 1) + 1
	}

	// visited flags give exactly-once output-frontier membership per
	// edgeMap phase (reset after each phase, as in Bellman-Ford).
	visited := make([]uint32, n)
	relax := func(lightOnly, heavyOnly bool) core.EdgeFuncs {
		update := func(s, d uint32, w int32) bool {
			w64 := int64(w)
			if lightOnly && w64 > delta {
				return false
			}
			if heavyOnly && w64 <= delta {
				return false
			}
			sd := atomic.LoadInt64(&dist[s])
			if sd >= InfDist {
				return false
			}
			if atomicx.WriteMinInt64(&dist[d], sd+w64) {
				return atomicx.TestAndSetBool(&visited[d])
			}
			return false
		}
		return core.EdgeFuncs{Update: update, UpdateAtomic: update}
	}
	lightFuncs := relax(true, false)
	heavyFuncs := relax(false, true)

	// Julienne-style lazy buckets by tentative distance / delta. Every
	// distance improvement is mirrored by a bucket update, so the
	// structure's stale-entry validation replaces explicit distance
	// checks.
	bkts := buckets.New(n, func(v uint32) int64 {
		if v == source {
			return 0
		}
		return buckets.Finished
	})
	bucketOf := func(v uint32) int64 { return dist[v] / delta }
	resetVisited := func(out *core.VertexSubset) error {
		return core.VertexMap(ctx, out, func(v uint32) { visited[v] = 0 })
	}

	for {
		if err := parallel.CtxErr(ctx); err != nil {
			return partial(err)
		}
		k, cur, ok := bkts.Next()
		if !ok {
			break
		}
		nBuckets++

		// Light-edge fixpoint for bucket k. Track all settled members.
		settled := append([]uint32(nil), cur...)
		settledSet := map[uint32]bool{}
		for _, v := range cur {
			settledSet[v] = true
		}
		for len(cur) > 0 {
			frontier := core.NewSparse(n, cur)
			out, err := core.EdgeMap(ctx, g, frontier, lightFuncs, opts)
			if err == nil {
				err = resetVisited(out)
			}
			if err != nil {
				return partial(err)
			}
			phases++
			cur = nil
			out.ForEachSeq(func(v uint32) {
				if bucketOf(v) == k {
					// Pulled into (or improved within) the open bucket:
					// process immediately and retire any pending entry.
					bkts.Update(v, buckets.Finished)
					if !settledSet[v] {
						settledSet[v] = true
						settled = append(settled, v)
					}
					cur = append(cur, v)
				} else {
					bkts.Update(v, bucketOf(v))
				}
			})
		}

		// One heavy-edge pass from everything settled in this bucket;
		// heavy targets land strictly beyond bucket k.
		frontier := core.NewSparse(n, settled)
		out, err := core.EdgeMap(ctx, g, frontier, heavyFuncs, opts)
		if err == nil {
			err = resetVisited(out)
		}
		if err != nil {
			return partial(err)
		}
		phases++
		out.ForEachSeq(func(v uint32) {
			bkts.Update(v, bucketOf(v))
		})
	}
	return &DeltaSteppingResult{Dist: dist, Buckets: nBuckets, Phases: phases}, nil
}
