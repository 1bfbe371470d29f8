package algo

import (
	"cmp"
	"context"
	"sync/atomic"

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

// ConnectedComponentsCtx runs the paper's label-propagation algorithm (§5.4):
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
// per-round "first change" test makes frontier membership unique.
//
// On interruption the partial result's Labels form a valid
// coarsening of the true components (every label is some member's ID and
// propagation simply hasn't converged); Components counts the labels that
// are still their own representative, as far as the count got under the
// interrupted ctx.
func ConnectedComponentsCtx(ctx context.Context, g graph.View, opts core.Options) (*CCResult, error) {
	n := g.NumVertices()
	ids := make([]uint32, n)
	rounds := 0
	err := parallel.Iota(ctx, ids, 0)
	if err != nil {
		for i := range ids {
			ids[i] = uint32(i) // the initial labeling, as fill would leave it
		}
		err = roundErr("components", 0, err)
	} else {
		rounds, err = PropagateLabelsCtx(ctx, g, ids, core.NewAll(n), nil, opts)
	}
	// A label l names a component iff its own label is itself.
	components, cerr := parallel.CountFunc(ctx, n, func(i int) bool { return ids[i] == uint32(i) })
	return &CCResult{Labels: ids, Components: components, Rounds: rounds},
		cmp.Or(err, roundErr("components", rounds, cerr))
}

// PropagateLabelsCtx is ConnectedComponentsCtx's loop, started from the
// given labels and frontier: each round the frontier's labels propagate
// to its neighbours by writeMin, and a vertex joins the next frontier the
// first time its label shrinks in that round. It stops when a round
// changes nothing and reports how many rounds it ran. The labels are
// updated in place; on interruption they are those the completed writes
// left, and the error is a *RoundError.
//
// within, when non-nil, is the edgeMap Cond: only vertices it accepts
// receive labels. It confines push rounds alone — a pull round reads
// every in-neighbour of the vertices it updates — so a caller that must
// keep propagation inside a region forces sparse rounds (opts.Mode =
// core.Sparse) and seeds only vertices of that region.
func PropagateLabelsCtx(ctx context.Context, g graph.View, labels []uint32, seeds *core.VertexSubset, within func(uint32) bool, opts core.Options) (rounds int, err error) {
	// prev[v] is v's label when the round began: a copy of labels at the
	// start, so a vertex outside seeds also joins the frontier the first
	// time its label shrinks.
	prev := make([]uint32, len(labels))
	if err := parallel.ForRange(ctx, len(labels), func(lo, hi int) { copy(prev[lo:hi], labels[lo:hi]) }); err != nil {
		return 0, roundErr("components", 0, err)
	}
	funcs := core.EdgeFuncs{
		// Push: writeMin of s's label, read once per row, over each d
		// within the region, d joining the frontier from the one update
		// that moves it off the label it began the round with. Labels only
		// shrink, so exactly one such update exists per round; a label of
		// s that shrinks during the round puts s in the next frontier.
		PushRow: func(s uint32, dsts []uint32, _ []int32, out []uint32) []uint32 {
			l := atomic.LoadUint32(&labels[s])
			for _, d := range dsts {
				if (within == nil || within(d)) && shrinkFrom(&labels[d], l, prev[d]) {
					out = append(out, d)
				}
			}
			return out
		},
		Cond: within,
		// Pull: for each d within the region, the row's minimum label in a
		// register, one store. d is written only here during a dense
		// round, so its label still equals prev[d] and "first shrink this
		// round" is simply "shrank". The frontier is not consulted: a
		// neighbour outside it has not changed since d last read it, so
		// reading it again changes nothing, and an unconditional load is
		// cheaper than an unpredictable branch per edge. Labels are loaded
		// atomically: the sources' own rows are being pulled concurrently,
		// and a later row of the block reads what an earlier one stored.
		// The region is tested in a loop of its own, so that the row loop
		// makes no call.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, _ []uint64) uint64 {
			var outside uint64
			if within != nil {
				for i := range len(offs) - 1 {
					if !within(lo + uint32(i)) {
						outside |= 1 << (uint(i) & 63)
					}
				}
			}
			var word uint64
			start := offs[0]
			for i, end := range offs[1:] {
				if d := lo + uint32(i); outside&(1<<(uint(i)&63)) == 0 {
					orig := labels[d]
					best := orig
					for _, s := range srcs[start:end] {
						best = min(best, atomic.LoadUint32(&labels[s]))
					}
					if best != orig {
						atomic.StoreUint32(&labels[d], best)
						word |= 1 << (uint(i) & 63)
					}
				}
				start = end
			}
			return word
		},
	}

	frontier := seeds
	for !frontier.IsEmpty() {
		if err := core.VertexMap(ctx, frontier, func(v uint32) { prev[v] = labels[v] }); err != nil {
			return rounds, roundErr("components", rounds, err)
		}
		if frontier, err = core.EdgeMap(ctx, g, frontier, funcs, opts); err != nil {
			return rounds, roundErr("components", rounds, err)
		}
		rounds++
	}
	return rounds, nil
}

// shrinkFrom lowers *addr to v when v is smaller (a writeMin) and reports
// whether this call replaced from itself: of all the calls that shrink
// *addr from from downwards, exactly one does.
func shrinkFrom(addr *uint32, v, from uint32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, v) {
			return old == from
		}
	}
}
