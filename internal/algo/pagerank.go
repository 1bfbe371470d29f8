package algo

import (
	"context"
	"math"

	"ligra/internal/atomicx"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// PageRankOptions configures the PageRank computations.
type PageRankOptions struct {
	// Damping is the teleport damping factor (paper uses 0.85).
	Damping float64
	// Epsilon is the L1 convergence tolerance; iteration stops when the
	// total rank change falls below it. <= 0 disables the check.
	Epsilon float64
	// MaxIterations bounds the number of power iterations (the paper's
	// Table 2 reports a single iteration). <= 0 means no bound.
	MaxIterations int
	// EdgeMap options (mode, threshold, tracing) forwarded to each round.
	EdgeMap core.Options
}

// DefaultPageRankOptions returns the paper's parameters.
func DefaultPageRankOptions() PageRankOptions {
	return PageRankOptions{Damping: 0.85, Epsilon: 1e-7, MaxIterations: 100}
}

// PageRankResult carries the output of PageRank.
type PageRankResult struct {
	// Ranks[v] is the PageRank score of v; scores sum to ~1.
	Ranks []float64
	// Iterations actually executed.
	Iterations int
	// Err is the final L1 change between the last two iterations.
	Err float64
}

// pageRankGrain is the chunk of PageRankCtx's vertex passes. Their
// partial sums — the dangling mass and the residual — are kept per chunk
// and added in chunk order, so both are the same whatever the worker
// count.
const pageRankGrain = 4096

// PageRankCtx runs the paper's PageRank (§5.5): every round is a
// dense-leaning edgeMap over the full vertex set accumulating p[s]/deg⁺(s)
// into each destination, followed by one vertex pass applying damping.
// Dangling vertices (out-degree 0) have their rank redistributed
// uniformly, the standard correction that preserves probability mass.
//
// ctx (nil = background) is checked before each power iteration and at
// chunk granularity inside every pass of it. On interruption it returns
// the ranks of the last fully completed iteration together with a
// *RoundError: rank updates are committed only after a round's edgeMap
// finishes, by a pass that runs to its end under ctx's worker cap without
// its cancellation, so an aborted round leaves Ranks untouched.
func PageRankCtx(ctx context.Context, g graph.View, opts PageRankOptions) (*PageRankResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return &PageRankResult{Ranks: nil}, roundErr("pagerank", 0, parallel.CtxErr(ctx))
	}
	if opts.Damping <= 0 || opts.Damping >= 1 {
		opts.Damping = 0.85
	}
	if opts.MaxIterations <= 0 && opts.Epsilon <= 0 {
		// No stopping rule at all would loop forever; apply the default
		// bound.
		opts.MaxIterations = 100
	}

	p := make([]float64, n)
	pDiv := make([]float64, n) // p[v] / outdeg(v), read-only during a round
	iters := 0
	errL1 := math.Inf(1)
	partial := func(err error) (*PageRankResult, error) {
		return &PageRankResult{Ranks: p, Iterations: iters, Err: errL1},
			roundErr("pagerank", iters, err)
	}
	if err := fill(ctx, p, 1/float64(n)); err != nil {
		return partial(err)
	}
	outDeg, err := outDegrees(ctx, g)
	if err != nil {
		return partial(err)
	}

	nghSum := atomicx.NewFloat64Slice(n) // zero between rounds
	all := core.NewAll(n)

	funcs := core.EdgeFuncs{
		// Push: s's share added into each out-neighbour's sum. Like the
		// pull kernel it lists no output: the rounds ask for none.
		PushRow: func(s uint32, dsts []uint32, _ []int32, out []uint32) []uint32 {
			share := pDiv[s]
			for _, d := range dsts {
				nghSum.Add(int(d), share)
			}
			return out
		},
		// Pull: the frontier is every vertex, so each whole in-row sums in
		// a register — in row order, the order the per-edge adds ran in —
		// and is stored once.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, _ []uint64) uint64 {
			start := offs[0]
			for i, end := range offs[1:] {
				var sum float64
				for _, s := range srcs[start:end] {
					sum += pDiv[s]
				}
				nghSum.StoreNonAtomic(int(lo)+i, sum)
				start = end
			}
			return 0
		},
	}
	emOpts := opts.EdgeMap
	emOpts.NoOutput = true

	// Per-chunk partials of the vertex passes: the dangling mass (rank
	// held by out-degree-0 vertices, spread evenly) and the residual.
	chunks := (n + pageRankGrain - 1) / pageRankGrain
	danglingPart, l1Part := make([]float64, chunks), make([]float64, chunks)
	// The set-up pass: the first iteration's shares and dangling mass.
	// pDiv of an out-degree-0 vertex is never written: it stays 0.
	if err := parallel.ForWorkerChunks(ctx, n, pageRankGrain, func(_, c, lo, hi int) {
		var dangling float64
		for i := lo; i < hi; i++ {
			if outDeg[i] > 0 {
				pDiv[i] = p[i] / outDeg[i]
			} else {
				dangling += p[i]
			}
		}
		danglingPart[c] = dangling
	}); err != nil {
		return partial(err)
	}
	dangling := sumInOrder(danglingPart)

	// The commit pass: each vertex's next rank, its change, its next
	// share and the next dangling mass, in one pass that also zeroes the
	// sum it read, so a push round starts from zero. It runs to its end
	// (commit ignores ctx's cancellation), so the ranks are always those
	// of a completed iteration.
	var base float64
	commit := detached(ctx)
	commitChunk := func(_, c, lo, hi int) {
		var l1, dangling float64
		for i := lo; i < hi; i++ {
			next := base + opts.Damping*nghSum.LoadNonAtomic(i)
			nghSum.StoreNonAtomic(i, 0)
			l1 += math.Abs(next - p[i])
			p[i] = next
			if outDeg[i] > 0 {
				pDiv[i] = next / outDeg[i]
			} else {
				dangling += next
			}
		}
		l1Part[c], danglingPart[c] = l1, dangling
	}
	for {
		if opts.MaxIterations > 0 && iters >= opts.MaxIterations {
			break
		}
		if opts.Epsilon > 0 && errL1 < opts.Epsilon {
			break
		}
		if _, err := core.EdgeMap(ctx, g, all, funcs, emOpts); err != nil {
			// p has not been touched this round: the ranks are exactly
			// those of the last completed iteration.
			return partial(err)
		}

		base = (1-opts.Damping)/float64(n) + opts.Damping*dangling/float64(n)
		if err := parallel.ForWorkerChunks(commit, n, pageRankGrain, commitChunk); err != nil {
			return partial(err)
		}
		errL1, dangling = sumInOrder(l1Part), sumInOrder(danglingPart)
		iters++
	}
	return &PageRankResult{Ranks: p, Iterations: iters, Err: errL1}, nil
}

// sumInOrder is the sum of parts, added in order.
func sumInOrder(parts []float64) float64 {
	var sum float64
	for _, x := range parts {
		sum += x
	}
	return sum
}

// outDegrees returns every vertex's out-degree as a float64, so the power
// iterations divide by an array element instead of calling g.OutDegree
// twice per vertex per iteration. (The degree, not its inverse: p/deg
// keeps the ranks bit-identical to the sequential oracle's, p*(1/deg)
// does not.)
func outDegrees(ctx context.Context, g graph.View) ([]float64, error) {
	deg := make([]float64, g.NumVertices())
	return deg, parallel.For(ctx, len(deg), func(i int) { deg[i] = float64(g.OutDegree(uint32(i))) })
}

// PageRankDeltaCtx runs the paper's PageRank-Delta variant (§5.5): only
// vertices whose rank changed by more than a fraction delta of their
// current rank stay in the frontier, so later iterations touch a shrinking
// active set instead of the whole graph. On interruption it returns the
// accumulated ranks of the last completed iteration plus a *RoundError
// (the same commit-after-edgeMap contract as PageRankCtx). It follows
// Ligra's recurrence, which does not spread the rank an out-degree-0
// vertex holds, so on a graph with such vertices its ranks differ from
// PageRankCtx's, which spreads that mass over every vertex.
func PageRankDeltaCtx(ctx context.Context, g graph.View, opts PageRankOptions, delta float64) (*PageRankResult, error) {
	n := g.NumVertices()
	return pageRankDelta(ctx, g, opts, delta, make([]float64, n), make([]float64, n), true)
}

// PageRankDeltaFromCtx continues PageRank-Delta from a warm state: ranks
// are the current ranks and deltas the change each vertex has not yet
// pushed to its out-neighbours. The first frontier is the vertices with
// |deltas[v]| > delta·ranks[v]; from there it iterates as PageRankDeltaCtx
// does, updating both slices in place, with the same partial-result
// contract. An empty first frontier runs no iteration and reports Err 0.
func PageRankDeltaFromCtx(ctx context.Context, g graph.View, opts PageRankOptions, delta float64, ranks, deltas []float64) (*PageRankResult, error) {
	return pageRankDelta(ctx, g, opts, delta, ranks, deltas, false)
}

// pageRankDelta is PageRank-Delta's one loop. cold starts it from
// nothing: p is all 0, every deltas[v] is set to 1/n, the first frontier
// is every vertex, and the first iteration is the teleporting power step.
// deltas[v] is the change in v's rank in the last iteration.
func pageRankDelta(ctx context.Context, g graph.View, opts PageRankOptions, delta float64, p, deltas []float64, cold bool) (*PageRankResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return &PageRankResult{Ranks: nil}, roundErr("pagerank-delta", 0, parallel.CtxErr(ctx))
	}
	if opts.Damping <= 0 || opts.Damping >= 1 {
		opts.Damping = 0.85
	}
	if opts.MaxIterations <= 0 && opts.Epsilon <= 0 {
		opts.MaxIterations = 100
	}
	if delta <= 0 {
		delta = 1e-2
	}

	deltaDiv := make([]float64, n)
	iters := 0
	errL1 := math.Inf(1)
	partial := func(err error) (*PageRankResult, error) {
		return &PageRankResult{Ranks: p, Iterations: iters, Err: errL1},
			roundErr("pagerank-delta", iters, err)
	}

	nghSum := atomicx.NewFloat64Slice(n)
	funcs := core.EdgeFuncs{
		// Push: as in PageRankCtx, over the active sources' shares.
		PushRow: func(s uint32, dsts []uint32, _ []int32, out []uint32) []uint32 {
			share := deltaDiv[s]
			for _, d := range dsts {
				nghSum.Add(int(d), share)
			}
			return out
		},
		// Pull: the active in-neighbours' shares summed in a register.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, frontier []uint64) uint64 {
			for i := range len(offs) - 1 {
				sum := frontierSum(srcs[offs[i]:offs[i+1]], frontier, deltaDiv)
				nghSum.StoreNonAtomic(int(lo)+i, sum)
			}
			return 0
		},
	}
	emOpts := opts.EdgeMap
	emOpts.NoOutput = true

	active := func(v uint32) bool { return math.Abs(deltas[v]) > delta*p[v] }
	commit := detached(ctx)
	frontier := core.NewAll(n)
	var err error
	if cold {
		err = fill(ctx, deltas, 1/float64(n)) // first round: everything moved
	} else if frontier, err = core.NewFromFunc(ctx, n, active); err == nil && frontier.IsEmpty() {
		errL1 = 0
	}
	if err != nil {
		return partial(err)
	}
	for !frontier.IsEmpty() {
		if opts.MaxIterations > 0 && iters >= opts.MaxIterations {
			break
		}
		if opts.Epsilon > 0 && errL1 < opts.Epsilon {
			break
		}
		// Degrees are read per frontier vertex, not precomputed as
		// PageRankCtx does: a warm start's frontiers are a fraction of the
		// graph, and an O(n) degree pass would cost it more than it saves.
		if err := core.VertexMap(ctx, frontier, func(v uint32) {
			if deg := g.OutDegree(v); deg > 0 {
				deltaDiv[v] = deltas[v] / float64(deg)
			} else {
				deltaDiv[v] = 0
			}
		}); err != nil {
			return partial(err)
		}

		if _, err := core.EdgeMap(ctx, g, frontier, funcs, emOpts); err != nil {
			return partial(err)
		}

		// The commit runs to its end (see PageRankCtx), zeroing the sums
		// it read for the next round.
		var l1 float64
		if cold && iters == 0 {
			// First round: p was implicitly 1/n everywhere, so the rank
			// after one power step is damping*nghSum + (1-damping)/n and
			// the *delta* is that value minus the initial 1/n (Ligra's
			// PR_Vertex_F_FirstRound).
			oneOverN := 1 / float64(n)
			base := (1 - opts.Damping) * oneOverN
			l1, err = parallel.SumFunc(commit, n, func(i int) float64 {
				rank := opts.Damping*nghSum.LoadNonAtomic(i) + base
				nghSum.StoreNonAtomic(i, 0)
				p[i] = rank
				deltas[i] = rank - oneOverN
				return math.Abs(deltas[i])
			})
		} else {
			l1, err = parallel.SumFunc(commit, n, func(i int) float64 {
				change := opts.Damping * nghSum.LoadNonAtomic(i)
				nghSum.StoreNonAtomic(i, 0)
				deltas[i] = change
				p[i] += change
				return math.Abs(change)
			})
		}
		if err != nil {
			return partial(err)
		}
		errL1 = l1
		iters++
		// Keep vertices whose rank moved by more than delta * p[v].
		if frontier, err = core.NewFromFunc(ctx, n, active); err != nil {
			return partial(err)
		}
	}
	return &PageRankResult{Ranks: p, Iterations: iters, Err: errL1}, nil
}

// frontierSum is the sum, in row order, of vals at row's sources in the
// frontier (nil: every vertex). It is not inlined, so that its loop keeps
// the source in a register: inlined into a kernel's block loop, the
// compiler spilled it to the stack on every edge.
//
//go:noinline
func frontierSum(row []uint32, frontier []uint64, vals []float64) float64 {
	var sum float64
	for _, s := range row {
		if frontier == nil || frontier[s>>6]&(1<<(s&63)) != 0 {
			sum += vals[s]
		}
	}
	return sum
}
