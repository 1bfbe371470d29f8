package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// ColoringResult carries the output of greedy graph coloring.
type ColoringResult struct {
	// Colors[v] is the color of v, in [0, NumColors).
	Colors []int32
	// NumColors is the number of distinct colors used (at most max
	// degree + 1).
	NumColors int
	// Rounds is the number of priority rounds executed.
	Rounds int
}

// Coloring computes a proper vertex coloring of a symmetric simple graph
// with deterministic parallel greedy coloring: vertices get random
// priorities; every round, an uncolored vertex whose uncolored neighbors
// all have lower priority takes the smallest color unused by its
// neighbors. The result equals the sequential greedy coloring in
// priority order (the internally deterministic style of Blelloch,
// Fineman, Gibbons, Shun, PPoPP 2012), and expected rounds are
// O(log n) for random priorities.
//
// ctx is observed at chunk granularity in every pass. On interruption
// Colors is a proper partial coloring (-1 for vertices not yet colored)
// and NumColors is 0, returned with a *RoundError.
func Coloring(ctx context.Context, g graph.View, seed uint64, opts core.Options) (*ColoringResult, error) {
	n := g.NumVertices()
	colors := make([]int32, n)
	rounds := 0
	partial := func(err error) (*ColoringResult, error) {
		return &ColoringResult{Colors: colors, Rounds: rounds}, roundErr("coloring", rounds, err)
	}
	if err := fill(ctx, colors, int32(-1)); err != nil {
		return partial(err)
	}
	pri := make([]uint64, n)
	for v := 0; v < n; v++ {
		pri[v] = hashU64(seed, uint64(v))
	}
	higherPri := func(a, b uint32) bool {
		return pri[a] > pri[b] || (pri[a] == pri[b] && a > b)
	}

	uncolored := core.NewAll(n)
	for !uncolored.IsEmpty() {
		// Roots: uncolored vertices dominating their uncolored neighbors.
		roots, err := core.VertexFilter(ctx, uncolored, func(v uint32) bool {
			if atomic.LoadInt32(&colors[v]) != -1 {
				return false
			}
			dominated := false
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if d != v && atomic.LoadInt32(&colors[d]) == -1 && higherPri(d, v) {
					dominated = true
					return false
				}
				return true
			})
			return !dominated
		})
		if err != nil {
			return partial(err)
		}
		// Color each root with the smallest color free among neighbors.
		// Roots are pairwise non-adjacent, so their choices cannot
		// conflict within a round; already-colored neighbors are frozen.
		if err := core.VertexMap(ctx, roots, func(v uint32) {
			deg := g.OutDegree(v)
			used := make([]bool, deg+1)
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if c := atomic.LoadInt32(&colors[d]); c >= 0 && int(c) <= deg {
					used[c] = true
				}
				return true
			})
			c := int32(0)
			for int(c) <= deg && used[c] {
				c++
			}
			atomic.StoreInt32(&colors[v], c)
		}); err != nil {
			return partial(err)
		}
		if uncolored, err = core.VertexFilter(ctx, uncolored, func(v uint32) bool {
			return atomic.LoadInt32(&colors[v]) == -1
		}); err != nil {
			return partial(err)
		}
		rounds++
	}

	numColors := 0
	if n > 0 {
		maxColor, err := parallel.Max(ctx, colors)
		if err != nil {
			return partial(err)
		}
		numColors = int(maxColor) + 1
	}
	return &ColoringResult{Colors: colors, NumColors: numColors, Rounds: rounds}, nil
}
