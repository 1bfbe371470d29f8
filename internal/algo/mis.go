package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
)

// MISResult carries the output of the maximal-independent-set computation.
type MISResult struct {
	// InSet[v] reports whether v belongs to the MIS.
	InSet []bool
	// Rounds is the number of selection rounds executed.
	Rounds int
}

// MISStatus values used internally (exported for tests of invariants).
const (
	misUndecided int32 = iota
	misIn
	misOut
)

// MISCtx computes a maximal independent set of a symmetric graph with the
// priority-based parallel greedy algorithm analyzed by Blelloch, Fineman
// and Shun (SPAA 2012): each vertex gets a random priority; every round,
// undecided vertices that dominate all their undecided neighbors
// (strictly higher priority, ties broken by ID) join the set, and their
// neighbors drop out. Expected O(log n) rounds.
//
// Cancellation is observed before each selection round and at chunk
// granularity inside the knock-out edgeMap. On interruption InSet is a
// valid *independent* set (every member was selected as a round's
// dominator) that may not yet be maximal; it is returned with a
// *RoundError.
func MISCtx(ctx context.Context, g graph.View, seed uint64, opts core.Options) (*MISResult, error) {
	n := g.NumVertices()
	status := make([]int32, n)
	pri := make([]uint64, n)
	for v := 0; v < n; v++ {
		pri[v] = hashU64(seed, uint64(v))
	}
	// higherPri reports whether a dominates b.
	higherPri := func(a, b uint32) bool {
		return pri[a] > pri[b] || (pri[a] == pri[b] && a > b)
	}

	undecided := core.NewAll(n)
	rounds := 0
	partial := func(err error) (*MISResult, error) {
		in := make([]bool, n)
		for v := 0; v < n; v++ {
			in[v] = atomic.LoadInt32(&status[v]) == misIn
		}
		return &MISResult{InSet: in, Rounds: rounds}, roundErr("mis", rounds, err)
	}
	for !undecided.IsEmpty() {
		// Roots: undecided vertices dominating all undecided neighbors.
		roots, err := core.VertexFilter(ctx, undecided, func(v uint32) bool {
			if atomic.LoadInt32(&status[v]) != misUndecided {
				return false
			}
			var buf graph.Row
			ts, _ := g.OutRow(v, &buf)
			for _, d := range ts {
				if d != v && atomic.LoadInt32(&status[d]) == misUndecided && higherPri(d, v) {
					return false
				}
			}
			return true
		})
		if err != nil {
			return partial(err)
		}
		if err := core.VertexMap(ctx, roots, func(v uint32) { atomic.StoreInt32(&status[v], misIn) }); err != nil {
			return partial(err)
		}
		// Knock out the roots' neighbors.
		funcs := core.EdgeFuncs{
			UpdateAtomic: func(_, d uint32, _ int32) bool {
				return atomic.CompareAndSwapInt32(&status[d], misUndecided, misOut)
			},
		}
		emOpts := opts
		emOpts.NoOutput = true
		if _, err := core.EdgeMap(ctx, g, roots, funcs, emOpts); err != nil {
			return partial(err)
		}
		// Remaining undecided vertices.
		if undecided, err = core.VertexFilter(ctx, undecided, func(v uint32) bool {
			return atomic.LoadInt32(&status[v]) == misUndecided
		}); err != nil {
			return partial(err)
		}
		rounds++
	}
	return partial(nil)
}
