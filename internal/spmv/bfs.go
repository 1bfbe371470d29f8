package spmv

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"ligra/internal/bitset"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// BFSOptions configures the BFS-levels kernel.
type BFSOptions struct {
	// Mode forces a direction for every round: core.Auto applies the
	// |U| + outDegrees(U) > threshold heuristic, core.ForceSparse always
	// scatters (push), core.ForceDense always gathers (pull).
	Mode core.Mode
	// Threshold overrides the dense-switch threshold (0 = |E| / 20, the
	// paper's constant — identical to edgeMap's default).
	Threshold int64
}

// BFSResult carries the output of the BFS-levels kernel, shaped to match
// the edgeMap backend's reporting: Rounds is the BFS depth reached and
// Visited counts reachable vertices including the source.
type BFSResult struct {
	// Levels[v] is the distance in edges from the source, -1 if
	// unreachable. Identical to algo.BFSLevelsCtx output.
	Levels  []int32
	Rounds  int
	Visited int
}

// BFSLevels computes per-vertex BFS levels as iterated masked sparse
// matrix-vector products over the (boolean, |, &) semiring: each round
// multiplies the adjacency transpose by the frontier indicator vector under
// the complement of the visited mask, y = (¬visited) ∧ (Aᵀ ⊗ f). The push
// realization scatters frontier rows with a CAS per newly claimed level;
// the pull realization scans unvisited destinations' in-edges against the
// frontier bitset with early exit, choosing direction per round with
// edgeMap's |U| + outDegrees(U) > |E|/20 heuristic.
//
// ctx (nil = background) caps every loop's workers and is observed at
// chunk granularity.
// On interruption the partial Levels hold correct values for every vertex
// claimed so far (-1 elsewhere) — the same contract as algo.BFSLevelsCtx —
// and the error wraps the cause (including contained worker panics as
// *parallel.PanicError). Rounds reflects completed rounds.
func BFSLevels(ctx context.Context, g graph.View, source uint32, o BFSOptions) (*BFSResult, error) {
	n := g.NumVertices()
	if int64(source) >= int64(n) {
		return nil, fmt.Errorf("spmv: bfs source %d out of range (n=%d)", source, n)
	}
	levels := make([]int32, n)
	if err := parallel.Fill(ctx, levels, -1); err != nil {
		// The partial result reports the initial levels, as algo's do.
		for i := range levels {
			levels[i] = -1
		}
		levels[source] = 0
		return &BFSResult{Levels: levels, Visited: 1}, err
	}
	levels[source] = 0

	threshold := o.Threshold
	if threshold <= 0 {
		threshold = g.NumEdges() / core.DefaultThresholdDenominator
	}
	adj := rawCSR(g)

	frontier := bitset.New(n)
	frontier.Set(int(source))
	fsize := 1
	visited := 1
	rounds := 0
	level := int32(0)
	for fsize > 0 {
		level++
		outDeg, err := frontierOutDegrees(ctx, g, frontier)
		if err != nil {
			return &BFSResult{Levels: levels, Rounds: rounds, Visited: visited}, err
		}
		pull := int64(fsize)+outDeg > threshold
		switch o.Mode {
		case core.ForceSparse:
			pull = false
		case core.ForceDense:
			pull = true
		}
		next := bitset.New(n)
		if pull {
			err = bfsPull(ctx, g, adj, frontier, next, levels, level)
		} else {
			err = bfsPush(ctx, g, adj, frontier, next, levels, level)
		}
		if err != nil {
			return &BFSResult{Levels: levels, Rounds: rounds, Visited: visited}, err
		}
		nsize := next.Count()
		core.RecordTraversal(fsize, outDeg, pull, false, false, nsize)
		frontier, fsize = next, nsize
		visited += nsize
		if nsize > 0 {
			rounds++
		}
	}
	return &BFSResult{Levels: levels, Rounds: rounds, Visited: visited}, nil
}

// bfsPush scatters each frontier vertex's out-row, claiming unvisited
// destinations with a CAS on the level array (multiple sources may race for
// one destination within a round; exactly one wins).
func bfsPush(ctx context.Context, g graph.View, adj csr, frontier, next *bitset.Bitset, levels []int32, level int32) error {
	words := frontier.Words()
	claim := func(d uint32) {
		if atomic.LoadInt32(&levels[d]) == -1 &&
			atomic.CompareAndSwapInt32(&levels[d], -1, level) {
			next.SetAtomic(int(d))
		}
	}
	return parallel.For(ctx, len(words), func(wi int) {
		w := words[wi]
		if w == 0 {
			return
		}
		base := uint32(wi * 64)
		for w != 0 {
			s := base + uint32(bits.TrailingZeros64(w))
			w &= w - 1
			if adj.haveOut {
				lo, hi := adj.outOff[s], adj.outOff[s+1]
				for _, d := range adj.outDst[lo:hi] {
					claim(d)
				}
			} else {
				g.OutNeighbors(s, func(d uint32, _ int32) bool {
					claim(d)
					return true
				})
			}
		}
	})
}

// bfsPull scans every still-unvisited destination's in-row against the
// frontier bitset, stopping at the first frontier source (the boolean
// semiring's OR saturates). Chunks are aligned to whole bitset words, so
// levels and next see one writer per destination — plain stores, no
// atomics, which is where the pull direction's speed comes from.
func bfsPull(ctx context.Context, g graph.View, adj csr, frontier, next *bitset.Bitset, levels []int32, level int32) error {
	n := len(levels)
	fw := frontier.Words()
	inFrontier := func(s uint32) bool { return fw[s>>6]&(1<<(s&63)) != 0 }
	return parallel.ForRangeGrain(ctx, n, denseGrain(ctx, n), func(lo, hi int) {
		for d := lo; d < hi; d++ {
			if levels[d] != -1 {
				continue
			}
			if adj.haveIn {
				ilo, ihi := adj.inOff[d], adj.inOff[d+1]
				for _, s := range adj.inSrc[ilo:ihi] {
					if inFrontier(s) {
						levels[d] = level
						next.Set(d)
						break
					}
				}
			} else {
				g.InNeighbors(uint32(d), func(s uint32, _ int32) bool {
					if inFrontier(s) {
						levels[d] = level
						next.Set(d)
						return false
					}
					return true
				})
			}
		}
	})
}
