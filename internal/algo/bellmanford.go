package algo

import (
	"context"
	"math"
	"sync/atomic"

	"ligra/internal/atomicx"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
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

// BellmanFord runs the paper's frontier-based Bellman-Ford (§5.6): each
// round relaxes the out-edges of vertices whose distance improved in the
// previous round, using writeMin as the priority update. A Visited flag
// per round makes each destination join the output frontier once; the
// flags are reset by a vertexMap over the new frontier.
func BellmanFord(g graph.View, source uint32, opts core.Options) *SSSPResult {
	res, err := BellmanFordCtx(nil, g, source, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// BellmanFordCtx is BellmanFord with cooperative cancellation. On
// interruption Dist holds valid upper bounds on the true shortest-path
// distances (writeMin only ever tightens them), returned with a
// *RoundError.
func BellmanFordCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) (*SSSPResult, error) {
	n := g.NumVertices()
	dist := make([]int64, n)
	parallel.Fill(dist, InfDist)
	dist[source] = 0

	// visited[d] != 0 means d already joined this round's output frontier.
	visited := make([]uint32, n)

	funcs := core.EdgeFuncs{
		UpdateAtomic: func(s, d uint32, w int32) bool {
			sd := atomic.LoadInt64(&dist[s])
			if sd >= InfDist {
				return false
			}
			if atomicx.WriteMinInt64(&dist[d], sd+int64(w)) {
				return atomicx.TestAndSetBool(&visited[d])
			}
			return false
		},
		// Pull: the best relaxation in a register, one store. d joins the
		// output through its own bit, so the per-round visited flag is a
		// push-only device. Every in-edge is relaxed, frontier or not: an
		// edge whose source has not moved since its last relaxation cannot
		// improve d, and an unconditional load is cheaper than an
		// unpredictable branch per edge. Distances are loaded atomically:
		// the sources' own rows are being pulled concurrently.
		PullRow: func(d uint32, srcs []uint32, wts []int32, _ []uint64) bool {
			orig := dist[d]
			best := orig
			for j, s := range srcs {
				sd := atomic.LoadInt64(&dist[s])
				if sd >= InfDist {
					continue
				}
				w := int64(1)
				if wts != nil {
					w = int64(wts[j])
				}
				best = min(best, sd+w)
			}
			if best == orig {
				return false
			}
			atomic.StoreInt64(&dist[d], best)
			return true
		},
	}

	frontier := core.NewSingle(n, source)
	rounds := 0
	for !frontier.IsEmpty() {
		if rounds >= n {
			return &SSSPResult{Dist: dist, Rounds: rounds, NegativeCycle: true}, nil
		}
		next, err := core.EdgeMapCtx(ctx, g, frontier, funcs, opts)
		if err != nil {
			return &SSSPResult{Dist: dist, Rounds: rounds},
				roundErr("bellman-ford", rounds, err)
		}
		frontier = next
		core.VertexMap(frontier, func(v uint32) { visited[v] = 0 })
		rounds++
	}
	return &SSSPResult{Dist: dist, Rounds: rounds, NegativeCycle: false}, nil
}
