// Package algo implements the six applications of the Ligra paper (§5) —
// breadth-first search, betweenness centrality, graph radii estimation,
// connected components, PageRank (and PageRank-Delta), and Bellman-Ford —
// plus three extension algorithms from the same research line (k-core
// decomposition, maximal independent set, and triangle counting). Every
// algorithm is expressed against the core.EdgeMap / core.VertexMap
// interface exactly as in the paper, and accepts a core.Options so the
// benchmark harness can force sparse/dense modes and sweep thresholds.
// Every algorithm takes the ctx it runs under first: its worker cap and
// deadline reach every pass of the run, edgeMap rounds and vertex phases
// alike.
package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
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

// BFSCtx runs the paper's breadth-first search (Figure 1/§5.1): the
// frontier expands one level per round; Update claims unvisited
// destinations with a compare-and-swap on the parent array. ctx (nil =
// background) is observed at chunk granularity inside every pass. On
// interruption it returns the partial result — Parents holds a valid BFS
// forest over all vertices claimed so far — together with a *RoundError
// wrapping the cause.
func BFSCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) (*BFSResult, error) {
	parents := make([]uint32, g.NumVertices())
	if err := fill(ctx, parents, core.None); err != nil {
		parents[source] = source
		return &BFSResult{Parents: parents, Visited: 1}, roundErr("bfs", 0, err)
	}
	visited, rounds, err := bfsFrom(ctx, g, parents, source, opts)
	return &BFSResult{Parents: parents, Rounds: rounds, Visited: visited}, roundErr("bfs", rounds, err)
}

// bfsFrom is BFS's claim loop: it makes source a root of parents and
// claims, one level per round, every vertex reachable from it whose
// parent is still core.None. It returns the vertices it claimed (the
// source included) and the rounds that found new ones; on an error every
// claim made so far stays in parents, each pointing at a claimed vertex.
func bfsFrom(ctx context.Context, g graph.View, parents []uint32, source uint32, opts core.Options) (visited, rounds int, err error) {
	parents[source] = source
	funcs := core.EdgeFuncs{
		// Push: CAS claims the parent exactly once; the atomic load first
		// skips a claimed destination without a locked instruction, and
		// reads it safely while other workers CAS the same one.
		PushRow: func(s uint32, dsts []uint32, _ []int32, out []uint32) []uint32 {
			for _, d := range dsts {
				if atomic.LoadUint32(&parents[d]) == core.None && atomic.CompareAndSwapUint32(&parents[d], core.None, s) {
					out = append(out, d)
				}
			}
			return out
		},
		// Pull: each d has a single writer, so an unvisited d is tested
		// and claimed with plain loads and stores: the first frontier
		// in-neighbour wins and the rest of the row is never read.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, frontier []uint64) uint64 {
			own := parents[lo:][:len(offs)-1]
			var word uint64
			for i, p := range own {
				if p != core.None {
					continue
				}
				for j, end := offs[i], offs[i+1]; j < end; j++ {
					if s := srcs[j]; core.InFrontier(frontier, s) {
						own[i] = s
						word |= 1 << (uint(i) & 63)
						break
					}
				}
			}
			return word
		},
		// Read where a pull round fetches a row that is not in a CSR's
		// arrays, and by the direction rule as "can stop early".
		Cond: func(d uint32) bool { return atomic.LoadUint32(&parents[d]) == core.None },
	}

	// A destination is claimed at most once per round (the CAS is
	// idempotent), so a dense round over a view that decodes its rows may
	// hand the kernel a short prefix first.
	opts.DenseEarlyExit = true

	frontier := core.NewSingle(len(parents), source)
	visited = 1
	for !frontier.IsEmpty() {
		if frontier, err = core.EdgeMap(ctx, g, frontier, funcs, opts); err != nil {
			return visited, rounds, err
		}
		visited += frontier.Size()
		if frontier.Size() > 0 {
			rounds++
		}
	}
	return visited, rounds, nil
}

// BFSLevelsCtx derives per-vertex BFS levels (distance in edges from the
// source; -1 for unreachable) by rerunning the traversal with a level
// counter. It shares BFSCtx's edgeMap structure and exists because several
// experiments report level-by-level behaviour. On interruption the
// returned slice holds correct levels for every vertex reached in
// completed rounds (-1 elsewhere) alongside a *RoundError.
func BFSLevelsCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) ([]int32, error) {
	n := g.NumVertices()
	levels := make([]int32, n)
	err := fill(ctx, levels, int32(-1))
	levels[source] = 0
	if err != nil {
		return levels, roundErr("bfs-levels", 0, err)
	}

	round := int32(0)
	funcs := levelFuncs(levels, &round, nil, nil)
	// Same claim-once structure as BFS: dense rounds may early-exit.
	opts.DenseEarlyExit = true
	frontier := core.NewSingle(n, source)
	for !frontier.IsEmpty() {
		round++
		next, err := core.EdgeMap(ctx, g, frontier, funcs, opts)
		if err != nil {
			return levels, roundErr("bfs-levels", int(round-1), err)
		}
		frontier = next
	}
	return levels, nil
}

// levelFuncs is BFSLevels' kernel over levels: a round claims every
// unvisited destination at level *round, as BFS claims a parent. With
// other set, the levels of a search growing from the far end, a claim
// on a vertex other has reached also sets met: the two searches meet
// there. Rounds over dense frontiers may early-exit.
func levelFuncs(levels []int32, round *int32, other []int32, met *atomic.Bool) core.EdgeFuncs {
	return core.EdgeFuncs{
		// Push: as in BFS, a tested CAS claims each destination once.
		PushRow: func(_ uint32, dsts []uint32, _ []int32, out []uint32) []uint32 {
			r := *round
			for _, d := range dsts {
				if atomic.LoadInt32(&levels[d]) == -1 && atomic.CompareAndSwapInt32(&levels[d], -1, r) {
					out = append(out, d)
					if other != nil && other[d] != -1 {
						met.Store(true)
					}
				}
			}
			return out
		},
		// Pull: as in BFS, any frontier in-neighbour settles an unvisited d.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, frontier []uint64) uint64 {
			own := levels[lo:][:len(offs)-1]
			r := *round
			var word uint64
			for i, l := range own {
				if l != -1 {
					continue
				}
				for j, end := offs[i], offs[i+1]; j < end; j++ {
					if core.InFrontier(frontier, srcs[j]) {
						own[i] = r
						word |= 1 << (uint(i) & 63)
						if other != nil && other[lo+uint32(i)] != -1 {
							met.Store(true)
						}
						break
					}
				}
			}
			return word
		},
		Cond: func(d uint32) bool { return atomic.LoadInt32(&levels[d]) == -1 },
	}
}
