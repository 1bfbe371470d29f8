package algo

import (
	"context"
	"math"
	"sync/atomic"

	"ligra/internal/atomicx"
	"ligra/internal/core"
	"ligra/internal/graph"
)

// BCResult carries the output of single-source betweenness centrality.
type BCResult struct {
	// Scores[v] is the dependency of the source on v (Brandes' delta),
	// i.e. v's contribution to betweenness centrality from this source.
	Scores []float64
	// NumPaths[v] is the number of shortest paths from the source to v.
	NumPaths []float64
	// Levels[v] is the BFS level of v from the source (-1 if unreachable).
	Levels []int32
	// Rounds is the number of forward edgeMap rounds.
	Rounds int
}

// BCCtx runs the paper's betweenness-centrality application (§5.2):
// Brandes' algorithm for one source, with both the forward shortest-path
// counting sweep and the backward dependency accumulation expressed as
// edgeMaps.
//
// Forward: path counts accumulate into unvisited destinations (plain adds
// in dense rounds where each destination has one writer, fetch-and-add in
// sparse rounds); a CAS on the level array gives exactly-once frontier
// membership. Backward: the saved level frontiers are replayed deepest
// first over the transposed edges, accumulating Brandes' dependency
// delta[d] += sigma[d]/sigma[s] * (1 + delta[s]) from each successor s one
// level deeper.
//
// Cancellation is observed per chunk in both the forward and the backward
// sweep. On interruption it returns the state computed so far — Levels
// and NumPaths are valid for all completed forward rounds; Scores holds
// whatever dependency mass the backward sweep had accumulated — together
// with a *RoundError (its Round counts forward rounds during the forward
// phase, and remaining backward levels during the backward phase).
func BCCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) (*BCResult, error) {
	n := g.NumVertices()
	numPaths := atomicx.NewFloat64Slice(n)
	levels := make([]int32, n)
	err := fill(ctx, levels, int32(-1))
	levels[source] = 0
	numPaths.StoreNonAtomic(int(source), 1)
	if err != nil {
		return &BCResult{Scores: make([]float64, n), NumPaths: numPaths.ToSlice(), Levels: levels},
			roundErr("bc", 0, err)
	}

	// --- Forward phase: count shortest paths level by level. ---
	//
	// Cond is "unvisited before this round": a level of -1, or this
	// round's own, which the first contributor's CAS sets. A destination
	// must keep accepting contributions for the whole round — a dense
	// round's per-edge kernel re-checks Cond after every update — so
	// "level still -1" would lose path counts, while a level set in an
	// earlier round must stop them.
	round := int32(0)
	fwd := core.EdgeFuncs{
		// Push: s's count, settled last round, is read once per row and
		// added into every destination still open this round (Cond,
		// tested here); a destination already claimed this round costs a
		// load, not a locked CAS: test, then test-and-set.
		PushRow: func(s uint32, dsts []uint32, _ []int32, out []uint32) []uint32 {
			r, paths := roundLoad(&round), numPaths.Load(int(s))
			for _, d := range dsts {
				if l := atomic.LoadInt32(&levels[d]); l != -1 && l != r {
					continue
				}
				numPaths.Add(int(d), paths)
				if atomic.LoadInt32(&levels[d]) == -1 && atomicx.CASInt32(&levels[d], -1, r) {
					out = append(out, d)
				}
			}
			return out
		},
		// Pull: d's single writer tests Cond with a plain load. Before d's
		// one kernel call of a pull round nothing has set its level to this
		// round's, so Cond is "level -1": d is unvisited, its count starts
		// at zero and the frontier in-neighbours' counts — settled last
		// round, all positive — sum in a register, in row order.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, frontier []uint64) uint64 {
			r, counts := roundLoad(&round), numPaths.NonAtomicBits()
			var word uint64
			for i := range len(offs) - 1 {
				d := lo + uint32(i)
				if levels[d] != -1 {
					continue
				}
				paths := frontierSumBits(srcs[offs[i]:offs[i+1]], frontier, counts)
				if paths == 0 {
					continue
				}
				numPaths.StoreNonAtomic(int(d), paths)
				levels[d] = r
				word |= 1 << uint(i)
			}
			return word
		},
		Cond: func(d uint32) bool {
			l := atomic.LoadInt32(&levels[d])
			return l == -1 || l == roundLoad(&round)
		},
	}

	delta := atomicx.NewFloat64Slice(n)
	// result reports the state so far; once the forward loop has run its
	// final, empty round, round-1 is the number of non-empty ones.
	result := func() *BCResult {
		return &BCResult{
			Scores:   delta.ToSlice(),
			NumPaths: numPaths.ToSlice(),
			Levels:   levels,
			Rounds:   int(roundLoad(&round)) - 1,
		}
	}

	frontiers := []*core.VertexSubset{core.NewSingle(n, source)}
	frontier := frontiers[0]
	for !frontier.IsEmpty() {
		atomic.AddInt32(&round, 1)
		next, err := core.EdgeMap(ctx, g, frontier, fwd, opts)
		if err != nil {
			return result(), roundErr("bc", int(roundLoad(&round))-1, err)
		}
		frontier = next
		if !frontier.IsEmpty() {
			frontiers = append(frontiers, frontier)
		}
	}

	// --- Backward phase: accumulate dependencies in reverse level order.
	// An original edge (d -> s) with level(s) == level(d)+1 carries
	// dependency back from s to d; running edgeMap on the transposed view
	// with the deeper frontier as sources pushes exactly along those
	// reversed edges, and Cond restricts targets to the next-shallower
	// level.
	backRound := int32(0)
	bwd := core.EdgeFuncs{
		// Push: s's count and dependency, settled by the previous backward
		// round, are read once per row; each destination one level
		// shallower (Cond, tested here) gains its contribution. Like the
		// pull kernel it lists no output: the sweep asks for none.
		PushRow: func(s uint32, dsts []uint32, _ []int32, out []uint32) []uint32 {
			level := atomic.LoadInt32(&backRound) - 1
			paths, dep := numPaths.LoadNonAtomic(int(s)), delta.Load(int(s))
			for _, d := range dsts {
				if levels[d] == level {
					delta.Add(int(d), numPaths.LoadNonAtomic(int(d))/paths*(1+dep))
				}
			}
			return out
		},
		// Pull: for each d one level shallower than the frontier (Cond,
		// tested here), the dependency accumulates in a register over its
		// successors in the frontier, whose own dependencies were settled
		// by the previous backward round.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, frontier []uint64) uint64 {
			level := atomic.LoadInt32(&backRound) - 1
			counts, deps := numPaths.NonAtomicBits(), delta.NonAtomicBits()
			for i := range len(offs) - 1 {
				d := lo + uint32(i)
				if levels[d] != level {
					continue
				}
				dep := dependency(srcs[offs[i]:offs[i+1]], frontier, counts, deps, d)
				delta.StoreNonAtomic(int(d), dep)
			}
			return 0
		},
		Cond: func(d uint32) bool {
			return levels[d]+1 == atomic.LoadInt32(&backRound)
		},
	}
	gT := TransposeView(g)
	bwdOpts := opts
	bwdOpts.NoOutput = true
	for i := len(frontiers) - 1; i >= 1; i-- {
		atomic.StoreInt32(&backRound, int32(i))
		if _, err := core.EdgeMap(ctx, gT, frontiers[i], bwd, bwdOpts); err != nil {
			return result(), roundErr("bc-backward", i, err)
		}
	}
	return result(), nil
}

// TransposeView returns a graph.View presenting g with every edge
// reversed; for symmetric graphs it returns g itself.
func TransposeView(g graph.View) graph.View {
	if g.Symmetric() {
		return g
	}
	switch t := g.(type) {
	case transposeView:
		return t.g
	case *graph.Graph:
		return t.Transpose() // shares the arrays, and keeps raw CSR rows
	}
	return transposeView{g}
}

// transposeView flips the edge orientation of an arbitrary graph.View,
// rows included.
type transposeView struct {
	g graph.View
}

func (t transposeView) OutRow(v uint32, buf *graph.Row) ([]uint32, []int32) {
	return t.g.InRow(v, buf, math.MaxInt)
}

func (t transposeView) InRow(v uint32, buf *graph.Row, max int) ([]uint32, []int32) {
	ts, ws := t.g.OutRow(v, buf)
	return graph.Prefix(ts, ws, max)
}

func (t transposeView) NumVertices() int       { return t.g.NumVertices() }
func (t transposeView) NumEdges() int64        { return t.g.NumEdges() }
func (t transposeView) OutDegree(v uint32) int { return t.g.InDegree(v) }
func (t transposeView) InDegree(v uint32) int  { return t.g.OutDegree(v) }
func (t transposeView) Weighted() bool         { return t.g.Weighted() }
func (t transposeView) Symmetric() bool        { return t.g.Symmetric() }

// OutNeighbors is View's temporary per-edge shim over OutRow.
func (t transposeView) OutNeighbors(v uint32, fn func(d uint32, w int32) bool) {
	graph.OutNeighbors(t, v, fn)
}

// frontierSumBits is frontierSum over values held as their IEEE-754
// bits.
//
//go:noinline
func frontierSumBits(row []uint32, frontier []uint64, vals []uint64) float64 {
	var sum float64
	for _, s := range row {
		if frontier == nil || frontier[s>>6]&(1<<(s&63)) != 0 {
			sum += math.Float64frombits(vals[s])
		}
	}
	return sum
}

// dependency is d's dependency after the contributions, in row order, of
// its successors in the frontier: count(d) / count(s) * (1 + dep(s)),
// over the path counts and dependencies whose bits counts and deps hold.
// Not inlined, as frontierSum.
//
//go:noinline
func dependency(row []uint32, frontier []uint64, counts, deps []uint64, d uint32) float64 {
	paths, dep := math.Float64frombits(counts[d]), math.Float64frombits(deps[d])
	for _, s := range row {
		if frontier == nil || frontier[s>>6]&(1<<(s&63)) != 0 {
			dep += paths / math.Float64frombits(counts[s]) * (1 + math.Float64frombits(deps[s]))
		}
	}
	return dep
}
