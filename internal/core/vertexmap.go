package core

import (
	"context"

	"ligra/internal/parallel"
)

// VertexMap applies fn to every vertex in u, in parallel (Ligra's vertexMap
// without output), under ctx: its worker cap bounds the loop, it is
// checked at chunk granularity and its error returned, and a panic in fn
// is returned as a *parallel.PanicError. Vertices already mapped when the
// call aborts keep their effects.
//
// Small rounds take the scheduler's sequential cutoff automatically: the
// loops behind ForEach are auto-grain, so a frontier at or below the
// parallel package's cutoff runs inline on the calling goroutine, as one
// chunk, with zero dispatch — the vertexMap analogue of edgeMap's
// one-chunk small rounds (which are counted in TraversalStats.SeqRounds;
// per-vertex rounds are visible in the scheduler's inline-run counter
// instead).
func VertexMap(ctx context.Context, u *VertexSubset, fn func(v uint32)) error {
	return u.ForEach(ctx, fn)
}

// VertexFilter applies pred to every vertex of u and returns the subset of
// vertices for which it returned true (Ligra's vertexMap returning a
// vertexSubset), under ctx as VertexMap is. The output representation
// matches the input's.
func VertexFilter(ctx context.Context, u *VertexSubset, pred func(v uint32) bool) (*VertexSubset, error) {
	n := u.UniverseSize()
	if u.HasSparse() {
		out, err := parallel.Filter(ctx, u.sparse, pred)
		if err != nil {
			return nil, err
		}
		return NewSparse(n, out), nil
	}
	ud := u.dense
	return NewFromFunc(ctx, n, func(v uint32) bool { return ud.Get(int(v)) && pred(v) })
}
