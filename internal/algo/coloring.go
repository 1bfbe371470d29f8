package algo

import (
	"context"
	"math"
	"math/bits"
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
// priorities, and a vertex takes the smallest color unused by its
// neighbors once every higher-priority neighbor is colored. The result
// equals the sequential greedy coloring in priority order (the internally
// deterministic style of Blelloch, Fineman, Gibbons, Shun, PPoPP 2012),
// and expected rounds are O(log n) for random priorities.
//
// It is Jones–Plassmann with counters (Hasenplaugh et al., SPAA 2014),
// so each edge is read a constant number of times: wait[v] counts v's
// uncolored higher-priority neighbors, the vertices at zero are a round's
// roots, and after the roots take their colors one edgeMap from them under
// opts decrements their lower-priority neighbors' counters; the vertices
// it brings to zero are the next round's roots. The counts are taken over
// in-rows, the edges every edgeMap mode decrements along, so a directed
// input still colors every vertex.
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

	wait := make([]int32, n)
	if err := parallel.ForWorkerChunks(ctx, n, 0, func(_, _, lo, hi int) {
		var buf graph.Row
		for v := uint32(lo); v < uint32(hi); v++ {
			ss, _ := g.InRow(v, &buf, math.MaxInt)
			for _, s := range ss {
				if higherPri(s, v) {
					wait[v]++
				}
			}
		}
	}); err != nil {
		return partial(err)
	}
	roots, err := core.NewFromFunc(ctx, n, func(v uint32) bool { return wait[v] == 0 })
	if err != nil {
		return partial(err)
	}
	// The decrement that brings a count to zero puts its vertex in the
	// output, once.
	funcs := core.EdgeFuncs{
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return higherPri(s, d) && atomic.AddInt32(&wait[d], -1) == 0
		},
		Cond: func(d uint32) bool { return atomic.LoadInt32(&colors[d]) == -1 },
	}
	emOpts := opts
	emOpts.NoOutput = false
	for !roots.IsEmpty() {
		ids, err := roots.ToSparse(ctx)
		if err != nil {
			return partial(err)
		}
		// On a symmetric graph roots are pairwise non-adjacent, so their
		// choices cannot conflict within a round, and every colored
		// neighbor of a root has higher priority: its color is final. The
		// atomics keep a directed input, whose roots may be adjacent,
		// race-free.
		if err := parallel.ForWorkerChunks(ctx, len(ids), 0, func(_, _, lo, hi int) {
			var buf graph.Row
			var stack [64]uint64
			for _, v := range ids[lo:hi] {
				// v's color is at most its degree: bit c of used marks
				// color c taken, for c in [0, deg].
				ts, _ := g.OutRow(v, &buf)
				var used []uint64
				if k := len(ts)/64 + 1; k <= len(stack) {
					used = stack[:k]
					clear(used)
				} else {
					used = make([]uint64, k)
				}
				for _, d := range ts {
					if c := atomic.LoadInt32(&colors[d]); c >= 0 && int(c) <= len(ts) {
						used[c/64] |= 1 << (c % 64)
					}
				}
				for i, word := range used {
					if word != ^uint64(0) {
						atomic.StoreInt32(&colors[v], int32(64*i+bits.TrailingZeros64(^word)))
						break
					}
				}
			}
		}); err != nil {
			return partial(err)
		}
		if roots, err = core.EdgeMap(ctx, g, roots, funcs, emOpts); err != nil {
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
