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

// PageRank runs the paper's PageRank (§5.5): every round is a dense-leaning
// edgeMap over the full vertex set accumulating p[s]/deg⁺(s) into each
// destination, followed by a vertexMap applying damping. Dangling vertices
// (out-degree 0) have their rank redistributed uniformly, the standard
// correction that preserves probability mass.
func PageRank(g graph.View, opts PageRankOptions) *PageRankResult {
	res, err := PageRankCtx(nil, g, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// PageRankCtx is PageRank with cooperative cancellation: ctx (nil =
// background) is checked before each power iteration and at chunk
// granularity inside the edgeMap. On interruption it returns the ranks of
// the last fully completed iteration (rank updates are only committed
// after a round's edgeMap finishes, so a round aborted mid-traversal
// leaves Ranks untouched) together with a *RoundError.
func PageRankCtx(ctx context.Context, g graph.View, opts PageRankOptions) (*PageRankResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return &PageRankResult{Ranks: nil}, ctxErr(ctx)
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
	parallel.Fill(p, 1/float64(n))
	outDeg := outDegrees(g)

	nghSum := atomicx.NewFloat64Slice(n)
	all := core.NewAll(n)

	funcs := core.EdgeFuncs{
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			nghSum.Add(int(d), pDiv[s])
			return true
		},
		// Pull: the frontier is every vertex, so the whole in-row sums in
		// a register — in row order, the order the per-edge adds ran in —
		// and is stored once.
		PullRow: func(d uint32, srcs []uint32, _ []int32, _ []uint64) bool {
			var sum float64
			for _, s := range srcs {
				sum += pDiv[s]
			}
			nghSum.StoreNonAtomic(int(d), sum)
			return false
		},
	}
	emOpts := opts.EdgeMap
	emOpts.NoOutput = true

	iters := 0
	errL1 := math.Inf(1)
	partial := func(err error) (*PageRankResult, error) {
		return &PageRankResult{Ranks: p, Iterations: iters, Err: errL1},
			roundErr("pagerank", iters, err)
	}
	for {
		if opts.MaxIterations > 0 && iters >= opts.MaxIterations {
			break
		}
		if opts.Epsilon > 0 && errL1 < opts.Epsilon {
			break
		}
		if err := ctxErr(ctx); err != nil {
			return partial(err)
		}
		// Dangling mass: rank held by out-degree-0 vertices, spread evenly.
		dangling := parallel.SumFunc(n, func(i int) float64 {
			if outDeg[i] == 0 {
				return p[i]
			}
			return 0
		})
		parallel.For(n, func(i int) {
			if outDeg[i] > 0 {
				pDiv[i] = p[i] / outDeg[i]
			} else {
				pDiv[i] = 0
			}
			nghSum.StoreNonAtomic(i, 0)
		})

		if _, err := core.EdgeMapCtx(ctx, g, all, funcs, emOpts); err != nil {
			// p has not been touched this round: the ranks are exactly
			// those of the last completed iteration.
			return partial(err)
		}

		base := (1-opts.Damping)/float64(n) + opts.Damping*dangling/float64(n)
		errL1 = parallel.SumFunc(n, func(i int) float64 {
			next := base + opts.Damping*nghSum.LoadNonAtomic(i)
			delta := math.Abs(next - p[i])
			p[i] = next
			return delta
		})
		iters++
	}
	return &PageRankResult{Ranks: p, Iterations: iters, Err: errL1}, nil
}

// outDegrees returns every vertex's out-degree as a float64, so the power
// iterations divide by an array element instead of calling g.OutDegree
// twice per vertex per iteration. (The degree, not its inverse: p/deg
// keeps the ranks bit-identical to the sequential oracle's, p*(1/deg)
// does not.)
func outDegrees(g graph.View) []float64 {
	deg := make([]float64, g.NumVertices())
	parallel.For(len(deg), func(i int) { deg[i] = float64(g.OutDegree(uint32(i))) })
	return deg
}

// PageRankDelta runs the paper's PageRank-Delta variant (§5.5): only
// vertices whose rank changed by more than a fraction delta of their
// current rank stay in the frontier, so later iterations touch a shrinking
// active set instead of the whole graph.
func PageRankDelta(g graph.View, opts PageRankOptions, delta float64) *PageRankResult {
	res, err := PageRankDeltaCtx(nil, g, opts, delta)
	if err != nil {
		panic(err)
	}
	return res
}

// PageRankDeltaCtx is PageRankDelta with cooperative cancellation. On
// interruption it returns the accumulated ranks of the last completed
// iteration plus a *RoundError (the same commit-after-edgeMap contract as
// PageRankCtx).
func PageRankDeltaCtx(ctx context.Context, g graph.View, opts PageRankOptions, delta float64) (*PageRankResult, error) {
	n := g.NumVertices()
	if n == 0 {
		return &PageRankResult{Ranks: nil}, ctxErr(ctx)
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

	p := make([]float64, n)
	deltas := make([]float64, n) // change in rank in the last iteration
	deltaDiv := make([]float64, n)
	parallel.Fill(p, 0)
	parallel.Fill(deltas, 1/float64(n)) // first round: everything moved

	outDeg := outDegrees(g)

	nghSum := atomicx.NewFloat64Slice(n)
	funcs := core.EdgeFuncs{
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			nghSum.Add(int(d), deltaDiv[s])
			return true
		},
		// Pull: the active in-neighbours' shares summed in a register.
		PullRow: func(d uint32, srcs []uint32, _ []int32, frontier []uint64) bool {
			var sum float64
			for _, s := range srcs {
				if core.InFrontier(frontier, s) {
					sum += deltaDiv[s]
				}
			}
			nghSum.StoreNonAtomic(int(d), sum)
			return false
		},
	}
	emOpts := opts.EdgeMap
	emOpts.NoOutput = true

	frontier := core.NewAll(n)
	iters := 0
	errL1 := math.Inf(1)
	partial := func(err error) (*PageRankResult, error) {
		return &PageRankResult{Ranks: p, Iterations: iters, Err: errL1},
			roundErr("pagerank-delta", iters, err)
	}
	for !frontier.IsEmpty() {
		if opts.MaxIterations > 0 && iters >= opts.MaxIterations {
			break
		}
		if opts.Epsilon > 0 && errL1 < opts.Epsilon {
			break
		}
		if err := ctxErr(ctx); err != nil {
			return partial(err)
		}
		core.VertexMap(frontier, func(v uint32) {
			if outDeg[v] > 0 {
				deltaDiv[v] = deltas[v] / outDeg[v]
			} else {
				deltaDiv[v] = 0
			}
		})
		parallel.For(n, func(i int) { nghSum.StoreNonAtomic(i, 0) })

		if _, err := core.EdgeMapCtx(ctx, g, frontier, funcs, emOpts); err != nil {
			return partial(err)
		}

		if iters == 0 {
			// First round: p was implicitly 1/n everywhere, so the rank
			// after one power step is damping*nghSum + (1-damping)/n and
			// the *delta* is that value minus the initial 1/n (Ligra's
			// PR_Vertex_F_FirstRound).
			oneOverN := 1 / float64(n)
			base := (1 - opts.Damping) * oneOverN
			errL1 = parallel.SumFunc(n, func(i int) float64 {
				rank := opts.Damping*nghSum.LoadNonAtomic(i) + base
				p[i] = rank
				deltas[i] = rank - oneOverN
				return math.Abs(deltas[i])
			})
		} else {
			errL1 = parallel.SumFunc(n, func(i int) float64 {
				change := opts.Damping * nghSum.LoadNonAtomic(i)
				deltas[i] = change
				p[i] += change
				return math.Abs(change)
			})
		}
		// Keep vertices whose rank moved by more than delta * p[v].
		frontier = core.NewFromFunc(n, func(v uint32) bool {
			return math.Abs(deltas[v]) > delta*p[v]
		})
		iters++
	}
	return &PageRankResult{Ranks: p, Iterations: iters, Err: errL1}, nil
}
