// Package algo implements the six applications of the Ligra paper (§5) —
// breadth-first search, betweenness centrality, graph radii estimation,
// connected components, PageRank (and PageRank-Delta), and Bellman-Ford —
// plus three extension algorithms from the same research line (k-core
// decomposition, maximal independent set, and triangle counting). Every
// algorithm is expressed against the core.EdgeMap / core.VertexMap
// interface exactly as in the paper, and accepts a core.Options so the
// benchmark harness can force sparse/dense modes and sweep thresholds.
package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// BFSResult carries the output of a breadth-first search.
type BFSResult struct {
	// Parents[v] is the BFS-tree parent of v, the source for the source
	// itself, and core.None for unreachable vertices.
	Parents []uint32
	// Rounds is the number of edgeMap rounds (the BFS depth reached).
	Rounds int
	// Visited is the number of reachable vertices (including the source).
	Visited int
}

// BFS runs the paper's breadth-first search (Figure 1/§5.1): the frontier
// expands one level per round; Update claims unvisited destinations with a
// compare-and-swap on the parent array.
func BFS(g graph.View, source uint32, opts core.Options) *BFSResult {
	res, err := BFSCtx(nil, g, source, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// BFSCtx is BFS with cooperative cancellation: ctx (nil = background) is
// observed at chunk granularity inside every round. On interruption it
// returns the partial result — Parents holds a valid BFS forest over all
// vertices claimed so far — together with a *RoundError wrapping the
// cause.
func BFSCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) (*BFSResult, error) {
	n := g.NumVertices()
	parents := make([]uint32, n)
	parallel.Fill(parents, core.None)
	parents[source] = source

	funcs := core.EdgeFuncs{
		// Push: CAS claims the parent exactly once.
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return atomic.CompareAndSwapUint32(&parents[d], core.None, s)
		},
		// Pull: Cond has vouched that d is unvisited and d has a single
		// writer, so the first frontier in-neighbour wins with a plain
		// store and the rest of the row is never read.
		PullRow: func(d uint32, srcs []uint32, _ []int32, frontier []uint64) bool {
			for _, s := range srcs {
				if core.InFrontier(frontier, s) {
					parents[d] = s
					return true
				}
			}
			return false
		},
		// Atomic load: sparse workers CAS parents[d] concurrently with
		// other workers' Cond pre-checks on the same destination.
		Cond: func(d uint32) bool { return atomic.LoadUint32(&parents[d]) == core.None },
	}

	// A destination is claimed at most once per round (the CAS is
	// idempotent), so a dense round over a view that cannot hand PullRow a
	// row may stop scanning a vertex's in-edges after the first claim.
	opts.DenseEarlyExit = true

	frontier := core.NewSingle(n, source)
	visited := 1
	rounds := 0
	for !frontier.IsEmpty() {
		next, err := core.EdgeMapCtx(ctx, g, frontier, funcs, opts)
		if err != nil {
			return &BFSResult{Parents: parents, Rounds: rounds, Visited: visited},
				roundErr("bfs", rounds, err)
		}
		frontier = next
		visited += frontier.Size()
		if frontier.Size() > 0 {
			rounds++
		}
	}
	return &BFSResult{Parents: parents, Rounds: rounds, Visited: visited}, nil
}

// BFSLevels derives per-vertex BFS levels (distance in edges from the
// source; -1 for unreachable) by rerunning the traversal with a level
// counter. It shares BFS's edgeMap structure and exists because several
// experiments report level-by-level behaviour.
func BFSLevels(g graph.View, source uint32, opts core.Options) []int32 {
	levels, err := BFSLevelsCtx(nil, g, source, opts)
	if err != nil {
		panic(err)
	}
	return levels
}

// BFSLevelsCtx is BFSLevels with cooperative cancellation. On
// interruption the returned slice holds correct levels for every vertex
// reached in completed rounds (-1 elsewhere) alongside a *RoundError.
func BFSLevelsCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) ([]int32, error) {
	n := g.NumVertices()
	levels := make([]int32, n)
	parallel.Fill(levels, int32(-1))
	levels[source] = 0

	round := int32(0)
	funcs := core.EdgeFuncs{
		UpdateAtomic: func(_, d uint32, _ int32) bool {
			return atomic.CompareAndSwapInt32(&levels[d], -1, round)
		},
		// Pull: as in BFS, any frontier in-neighbour settles d.
		PullRow: func(d uint32, srcs []uint32, _ []int32, frontier []uint64) bool {
			for _, s := range srcs {
				if core.InFrontier(frontier, s) {
					levels[d] = round
					return true
				}
			}
			return false
		},
		// Atomic load: sparse workers CAS levels[d] concurrently with
		// other workers' Cond pre-checks on the same destination.
		Cond: func(d uint32) bool { return atomic.LoadInt32(&levels[d]) == -1 },
	}
	// Same claim-once structure as BFS: dense rounds may early-exit.
	opts.DenseEarlyExit = true
	frontier := core.NewSingle(n, source)
	for !frontier.IsEmpty() {
		round++
		next, err := core.EdgeMapCtx(ctx, g, frontier, funcs, opts)
		if err != nil {
			return levels, roundErr("bfs-levels", int(round-1), err)
		}
		frontier = next
	}
	return levels, nil
}
