package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/atomicx"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// CCResult carries the output of connected-components labeling.
type CCResult struct {
	// Labels[v] is the component identifier of v: the minimum vertex ID in
	// v's connected component.
	Labels []uint32
	// Components is the number of distinct components.
	Components int
	// Rounds is the number of label-propagation rounds executed.
	Rounds int
}

// ConnectedComponents runs the paper's label-propagation algorithm (§5.4):
// every vertex starts with its own ID; each round the frontier's labels
// propagate to neighbors via writeMin (a priority update), and a vertex
// enters the next frontier the first time its label shrinks in a round.
// The number of rounds is proportional to the largest component diameter.
//
// The algorithm assumes a symmetric graph (as in the paper's evaluation,
// which symmetrizes directed inputs for Components); on a directed graph
// it converges to labels that are only valid along directed reachability.
//
// Unlike BFS, a vertex's label can shrink repeatedly and its current label
// is read while neighbors concurrently update it, so both the dense and
// sparse update functions use atomic loads and priority updates; the
// per-round "first change" test makes frontier membership near-unique and a
// deduplication pass removes the remaining repeats.
func ConnectedComponents(g graph.View, opts core.Options) *CCResult {
	res, err := ConnectedComponentsCtx(nil, g, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// ConnectedComponentsCtx is ConnectedComponents with cooperative
// cancellation. On interruption the partial result's Labels form a valid
// coarsening of the true components (every label is some member's ID and
// propagation simply hasn't converged); Components counts the labels that
// are still their own representative.
func ConnectedComponentsCtx(ctx context.Context, g graph.View, opts core.Options) (*CCResult, error) {
	n := g.NumVertices()
	ids := make([]uint32, n)
	prev := make([]uint32, n)
	parallel.Iota(ids, 0)
	parallel.Iota(prev, 0)

	funcs := core.EdgeFuncs{
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			sid := atomic.LoadUint32(&ids[s])
			orig := atomic.LoadUint32(&ids[d])
			if atomicx.WriteMinUint32(&ids[d], sid) {
				return orig == prev[d]
			}
			return false
		},
		// Pull: the row's minimum label in a register, one store. d is
		// written only here during a dense round, so its label still equals
		// prev[d] and "first shrink this round" is simply "shrank". The
		// frontier is not consulted: a neighbour outside it has not changed
		// since d last read it, so reading it again changes nothing, and an
		// unconditional load is cheaper than an unpredictable branch per
		// edge. Labels are loaded atomically: the sources' own rows are
		// being pulled concurrently.
		PullRow: func(d uint32, srcs []uint32, _ []int32, _ []uint64) bool {
			orig := ids[d]
			best := orig
			for _, s := range srcs {
				best = min(best, atomic.LoadUint32(&ids[s]))
			}
			if best == orig {
				return false
			}
			atomic.StoreUint32(&ids[d], best)
			return true
		},
	}

	// Two sources can both lower ids[d] while observing orig == prev[d],
	// so sparse rounds may emit duplicates.
	opts.RemoveDuplicates = true

	frontier := core.NewAll(n)
	rounds := 0
	finish := func(err error) (*CCResult, error) {
		// A label l names a component iff its own label is itself.
		components := parallel.CountFunc(n, func(i int) bool { return ids[i] == uint32(i) })
		return &CCResult{Labels: ids, Components: components, Rounds: rounds},
			roundErr("components", rounds, err)
	}
	for !frontier.IsEmpty() {
		if err := core.VertexMapCtx(ctx, frontier, func(v uint32) { prev[v] = ids[v] }); err != nil {
			return finish(err)
		}
		next, err := core.EdgeMapCtx(ctx, g, frontier, funcs, opts)
		if err != nil {
			return finish(err)
		}
		frontier = next
		rounds++
	}
	return finish(nil)
}
