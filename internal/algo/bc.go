package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/atomicx"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
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

// BC runs the paper's betweenness-centrality application (§5.2): Brandes'
// algorithm for one source, with both the forward shortest-path counting
// sweep and the backward dependency accumulation expressed as edgeMaps.
//
// Forward: path counts accumulate into unvisited destinations (plain adds
// in dense rounds where each destination has one writer, fetch-and-add in
// sparse rounds); a CAS on the level array gives exactly-once frontier
// membership. Backward: the saved level frontiers are replayed deepest
// first over the transposed edges, accumulating Brandes' dependency
// delta[d] += sigma[d]/sigma[s] * (1 + delta[s]) from each successor s one
// level deeper.
func BC(g graph.View, source uint32, opts core.Options) *BCResult {
	res, err := BCCtx(nil, g, source, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// BCCtx is BC with cooperative cancellation, observed per chunk in both
// the forward and the backward sweep. On interruption it returns the
// state computed so far — Levels and NumPaths are valid for all completed
// forward rounds; Scores holds whatever dependency mass the backward
// sweep had accumulated — together with a *RoundError (its Round counts
// forward rounds during the forward phase, and remaining backward levels
// during the backward phase).
func BCCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) (*BCResult, error) {
	n := g.NumVertices()
	numPaths := atomicx.NewFloat64Slice(n)
	levels := make([]int32, n)
	parallel.Fill(levels, int32(-1))
	levels[source] = 0
	numPaths.StoreNonAtomic(int(source), 1)

	// --- Forward phase: count shortest paths level by level. ---
	//
	// Cond is "not yet visited", where visited is only updated by a
	// vertexMap *between* rounds (exactly as in the paper's BC code).
	// Using the level array for Cond would be wrong: in a dense round the
	// early-exit would stop scanning a destination after its first
	// contribution and lose path counts, so Cond must stay true for the
	// whole round while contributions accumulate.
	visited := make([]uint32, n)
	visited[source] = 1
	round := int32(0)
	fwd := core.EdgeFuncs{
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			numPaths.Add(int(d), numPaths.Load(int(s)))
			return atomicx.CASInt32(&levels[d], -1, roundLoad(&round))
		},
		// Pull: d is unvisited (Cond), so its count starts at zero and the
		// frontier in-neighbours' counts — settled last round, all positive
		// — sum in a register, in row order.
		PullRow: func(d uint32, srcs []uint32, _ []int32, frontier []uint64) bool {
			var paths float64
			for _, s := range srcs {
				if core.InFrontier(frontier, s) {
					paths += numPaths.LoadNonAtomic(int(s))
				}
			}
			if paths == 0 {
				return false
			}
			numPaths.StoreNonAtomic(int(d), paths)
			levels[d] = roundLoad(&round)
			return true
		},
		Cond: func(d uint32) bool { return visited[d] == 0 },
	}

	delta := atomicx.NewFloat64Slice(n)
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
		next, err := core.EdgeMapCtx(ctx, g, frontier, fwd, opts)
		if err != nil {
			return result(), roundErr("bc", int(roundLoad(&round))-1, err)
		}
		frontier = next
		core.VertexMap(frontier, func(v uint32) { visited[v] = 1 })
		if !frontier.IsEmpty() {
			frontiers = append(frontiers, frontier)
		}
	}
	rounds := len(frontiers) - 1

	// --- Backward phase: accumulate dependencies in reverse level order.
	// An original edge (d -> s) with level(s) == level(d)+1 carries
	// dependency back from s to d; running edgeMap on the transposed view
	// with the deeper frontier as sources pushes exactly along those
	// reversed edges, and Cond restricts targets to the next-shallower
	// level.
	backRound := int32(0)
	bwd := core.EdgeFuncs{
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			contrib := numPaths.LoadNonAtomic(int(d)) / numPaths.LoadNonAtomic(int(s)) *
				(1 + delta.Load(int(s)))
			delta.Add(int(d), contrib)
			return true
		},
		// Pull: d's dependency accumulates in a register over its
		// successors one level deeper (the frontier), whose own
		// dependencies were settled by the previous backward round.
		PullRow: func(d uint32, srcs []uint32, _ []int32, frontier []uint64) bool {
			paths := numPaths.LoadNonAtomic(int(d))
			dep := delta.LoadNonAtomic(int(d))
			for _, s := range srcs {
				if core.InFrontier(frontier, s) {
					dep += paths / numPaths.LoadNonAtomic(int(s)) * (1 + delta.LoadNonAtomic(int(s)))
				}
			}
			delta.StoreNonAtomic(int(d), dep)
			return false
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
		if _, err := core.EdgeMapCtx(ctx, gT, frontiers[i], bwd, bwdOpts); err != nil {
			return result(), roundErr("bc-backward", i, err)
		}
	}

	return &BCResult{
		Scores:   delta.ToSlice(),
		NumPaths: numPaths.ToSlice(),
		Levels:   levels,
		Rounds:   rounds,
	}, nil
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

// transposeView flips the edge orientation of an arbitrary graph.View.
type transposeView struct {
	g graph.View
}

func (t transposeView) NumVertices() int       { return t.g.NumVertices() }
func (t transposeView) NumEdges() int64        { return t.g.NumEdges() }
func (t transposeView) OutDegree(v uint32) int { return t.g.InDegree(v) }
func (t transposeView) InDegree(v uint32) int  { return t.g.OutDegree(v) }
func (t transposeView) Weighted() bool         { return t.g.Weighted() }
func (t transposeView) Symmetric() bool        { return t.g.Symmetric() }

func (t transposeView) OutNeighbors(v uint32, fn func(d uint32, w int32) bool) {
	t.g.InNeighbors(v, fn)
}

func (t transposeView) InNeighbors(v uint32, fn func(s uint32, w int32) bool) {
	t.g.OutNeighbors(v, fn)
}
