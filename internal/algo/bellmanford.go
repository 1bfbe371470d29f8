package algo

import (
	"context"
	"math"
	"sync/atomic"

	"ligra/internal/atomicx"
	"ligra/internal/core"
	"ligra/internal/graph"
)

// InfDist is the distance assigned to unreachable vertices.
const InfDist = int64(math.MaxInt64) / 4 // headroom so dist+weight cannot overflow

// SSSPResult carries the output of single-source shortest paths.
type SSSPResult struct {
	// Dist[v] is the shortest-path distance from the source, or InfDist if
	// v is unreachable.
	Dist []int64
	// Rounds is the number of relaxation rounds executed.
	Rounds int
	// NegativeCycle is true if a negative-weight cycle reachable from the
	// source was detected (after n rounds the frontier was still
	// non-empty); Dist is then not meaningful for vertices on or past the
	// cycle.
	NegativeCycle bool
}

// BellmanFordCtx runs the paper's frontier-based Bellman-Ford (§5.6): each
// round relaxes the out-edges of vertices whose distance improved in the
// previous round, using writeMin as the priority update; edgeMap's
// RemoveDuplicates makes each improved destination join the output
// frontier once. On interruption Dist holds valid upper bounds on the true
// shortest-path distances (writeMin only ever tightens them), returned
// with a *RoundError.
func BellmanFordCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) (*SSSPResult, error) {
	n := g.NumVertices()
	dist := make([]int64, n)
	err := fill(ctx, dist, InfDist)
	dist[source] = 0
	if err != nil {
		return &SSSPResult{Dist: dist}, roundErr("bellman-ford", 0, err)
	}

	funcs := core.EdgeFuncs{
		// Push: every improving writeMin succeeds, so d may be improved by
		// several sources in one round; the output keeps it once (see
		// RemoveDuplicates below). s's distance is read once per row: a
		// concurrent improvement of it puts s in the next frontier, whose
		// round relaxes its edges again. Weighted and unweighted rows get
		// a loop each, as in the pull kernel.
		PushRow: func(s uint32, dsts []uint32, wts []int32, out []uint32) []uint32 {
			sd := atomic.LoadInt64(&dist[s])
			if sd >= InfDist {
				return out
			}
			if wts == nil {
				for _, d := range dsts {
					if atomicx.WriteMinInt64(&dist[d], sd+1) {
						out = append(out, d)
					}
				}
				return out
			}
			for j, d := range dsts {
				if atomicx.WriteMinInt64(&dist[d], sd+int64(wts[j])) {
					out = append(out, d)
				}
			}
			return out
		},
		// Pull: each d's best relaxation in a register, one store. Every
		// in-edge is relaxed, frontier or not: an edge whose source has not
		// moved since its last relaxation cannot improve d, and an
		// unconditional load is cheaper than an unpredictable branch per
		// edge. Distances are loaded atomically: the sources' own rows are
		// being pulled concurrently, and a later row of the block reads
		// what an earlier one stored.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, wts []int32, _ []uint64) uint64 {
			own := dist[lo:][:len(offs)-1]
			var word uint64
			for i, orig := range own {
				best := orig
				// Weighted and unweighted rows get a loop each: one loop
				// with the weight test keeps so many values live that the
				// compiler spills them per edge.
				row := srcs[offs[i]:offs[i+1]]
				if wts == nil {
					for _, s := range row {
						if sd := atomic.LoadInt64(&dist[s]); sd < InfDist {
							best = min(best, sd+1)
						}
					}
				} else {
					ws := wts[offs[i]:offs[i+1]]
					for j, s := range row {
						if sd := atomic.LoadInt64(&dist[s]); sd < InfDist {
							best = min(best, sd+int64(ws[j]))
						}
					}
				}
				if best != orig {
					atomic.StoreInt64(&own[i], best)
					word |= 1 << (uint(i) & 63)
				}
			}
			return word
		},
	}

	// A sparse round claims each improved vertex's bit before listing it,
	// and a dense round's output is a bitset: either way a vertex joins the
	// next frontier once, with no per-round flag to reset.
	opts.RemoveDuplicates = true

	frontier := core.NewSingle(n, source)
	rounds := 0
	for !frontier.IsEmpty() {
		if rounds >= n {
			return &SSSPResult{Dist: dist, Rounds: rounds, NegativeCycle: true}, nil
		}
		next, err := core.EdgeMap(ctx, g, frontier, funcs, opts)
		if err != nil {
			return &SSSPResult{Dist: dist, Rounds: rounds},
				roundErr("bellman-ford", rounds, err)
		}
		frontier = next
		rounds++
	}
	return &SSSPResult{Dist: dist, Rounds: rounds, NegativeCycle: false}, nil
}
