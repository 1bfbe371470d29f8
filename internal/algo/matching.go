package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/atomicx"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// MatchingResult carries the output of maximal matching.
type MatchingResult struct {
	// Partner[v] is the vertex matched with v, or core.None if v is
	// unmatched.
	Partner []uint32
	// Size is the number of matched edges.
	Size int
	// Rounds is the number of local-maxima selection rounds.
	Rounds int
}

// MaximalMatching computes a maximal matching of a symmetric simple graph
// with the parallel greedy algorithm analyzed by Blelloch, Fineman and
// Shun (SPAA 2012): edges get random priorities; every round, edges that
// are the priority maximum at both endpoints join the matching and their
// endpoints retire. Expected O(log n) rounds.
//
// ctx caps every pass's workers and is observed at chunk granularity. On
// interruption Partner is a valid matching that may not yet be maximal
// and Size is 0, returned with a *RoundError.
func MaximalMatching(ctx context.Context, g graph.View, seed uint64) (*MatchingResult, error) {
	n := g.NumVertices()
	const none = ^uint32(0)
	partner := make([]uint32, n)
	rounds := 0
	partial := func(err error) (*MatchingResult, error) {
		return &MatchingResult{Partner: partner, Rounds: rounds}, roundErr("matching", rounds, err)
	}
	if err := fill(ctx, partner, none); err != nil {
		return partial(err)
	}

	// Edge priority, symmetric in the endpoints.
	edgePri := func(a, b uint32) uint64 {
		if a > b {
			a, b = b, a
		}
		// Avoid zero so "no candidate" is distinguishable.
		return hashU64(seed, uint64(a)<<32|uint64(b)) | 1
	}

	live := func(v uint32) bool { return atomic.LoadUint32(&partner[v]) == none }

	best := make([]uint64, n) // per-round best incident edge priority
	for {
		// Phase 1: every live vertex computes the max priority among its
		// live incident edges.
		var anyLive atomic.Bool
		if err := parallel.ForRange(ctx, n, func(lo, hi int) {
			var buf graph.Row
			for i := lo; i < hi; i++ {
				v := uint32(i)
				best[i] = 0
				if !live(v) {
					continue
				}
				var b uint64
				ts, _ := g.OutRow(v, &buf)
				for _, d := range ts {
					if d != v && live(d) {
						if p := edgePri(v, d); p > b {
							b = p
						}
					}
				}
				best[i] = b
				if b != 0 && !anyLive.Load() {
					anyLive.Store(true)
				}
			}
		}); err != nil {
			return partial(err)
		}
		if !anyLive.Load() {
			break
		}

		// Phase 2: an edge that is the maximum at both endpoints matches.
		// The lower endpoint claims both sides; CAS guards against the
		// (impossible by priority-uniqueness, but cheap to exclude)
		// double-claim.
		if err := parallel.ForRange(ctx, n, func(lo, hi int) {
			var buf graph.Row
			for i := lo; i < hi; i++ {
				v := uint32(i)
				if best[i] == 0 || !live(v) {
					continue
				}
				ts, _ := g.OutRow(v, &buf)
				for _, d := range ts {
					if d <= v || !live(d) {
						continue
					}
					p := edgePri(v, d)
					if p == best[v] && p == best[d] && atomicx.CASUint32(&partner[v], none, d) {
						if atomicx.CASUint32(&partner[d], none, v) {
							break
						}
						// d was taken concurrently (priority tie across
						// distinct edges): roll back v.
						atomic.StoreUint32(&partner[v], none)
					}
				}
			}
		}); err != nil {
			return partial(err)
		}
		rounds++
	}

	size, err := parallel.CountFunc(ctx, n, func(i int) bool {
		return partner[i] != none && partner[i] > uint32(i)
	})
	if err != nil {
		return partial(err)
	}
	return &MatchingResult{Partner: partner, Size: size, Rounds: rounds}, nil
}
