package algo

import (
	"context"
	"slices"
	"sync/atomic"

	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// forwardRows is the rank-oriented adjacency U of a symmetric simple graph
// in CSR form: row(v) holds v's neighbors of higher (degree, ID) rank,
// sorted ascending. Every triangle has exactly one lowest-ranked corner v,
// and appears there as a pair u, w in row(v) with w in row(u).
type forwardRows struct {
	offsets []int64
	fwd     []uint32
}

func (r forwardRows) row(v uint32) []uint32 { return r.fwd[r.offsets[v]:r.offsets[v+1]] }

// orientByRank builds the forward rows of g under ctx (nil = background). Degrees are cached once — the rank
// comparison runs twice per directed edge and View.OutDegree is an
// interface call — and adjacency is read through g's row source into
// per-chunk scratch.
func orientByRank(ctx context.Context, g graph.View) (forwardRows, error) {
	n := g.NumVertices()
	deg := make([]int32, n)
	if err := parallel.For(ctx, n, func(i int) {
		deg[i] = int32(g.OutDegree(uint32(i)))
	}); err != nil {
		return forwardRows{}, err
	}
	// rank(v) < rank(d) iff (deg, id) of v is smaller.
	higher := func(v, d uint32) bool {
		dv, dd := deg[v], deg[d]
		return dd > dv || (dd == dv && d > v)
	}
	// forward calls fn on the neighbors of v that outrank it.
	forward := func(v uint32, buf *graph.Row, fn func(d uint32)) {
		row, _ := g.OutRow(v, buf)
		for _, d := range row {
			if higher(v, d) {
				fn(d)
			}
		}
	}

	fwdDeg := make([]int64, n)
	if err := parallel.ForRange(ctx, n, func(lo, hi int) {
		var buf graph.Row
		for i := lo; i < hi; i++ {
			forward(uint32(i), &buf, func(uint32) { fwdDeg[i]++ })
		}
	}); err != nil {
		return forwardRows{}, err
	}
	offsets := make([]int64, n+1)
	total, err := parallel.ScanExclusive(ctx, fwdDeg, offsets[:n])
	if err != nil {
		return forwardRows{}, err
	}
	offsets[n] = total

	fwd := make([]uint32, total)
	err = parallel.ForRange(ctx, n, func(lo, hi int) {
		var buf graph.Row
		for i := lo; i < hi; i++ {
			k := offsets[i]
			forward(uint32(i), &buf, func(d uint32) {
				fwd[k] = d
				k++
			})
			slices.Sort(fwd[offsets[i]:k]) // rows are short (O(sqrt m)): a sequential sort per row
		}
	})
	return forwardRows{offsets: offsets, fwd: fwd}, err
}

// markCutoff is the forward-row length below which the counting pass uses
// plain sorted-merge intersection instead of scatter/gather against the
// per-worker mark vector: marking and unmarking a tiny row costs more than
// merging it.
const markCutoff = 16

// TriangleCountCtx counts the triangles of a symmetric simple graph with
// the rank-ordered intersection algorithm of Shun and Tangwongsan (ICDE
// 2015): orient every edge from lower to higher (degree, ID) rank, so each
// triangle is counted exactly once as a wedge whose two forward adjacency
// lists intersect. Work is O(m^{3/2}) and the per-vertex loop parallelizes
// directly.
//
// ctx (nil = background) is observed at chunk granularity in every phase.
// On interruption the returned count is meaningless (0) — there is no
// useful partial result for a global count — and the error wraps the cause
// as a *RoundError.
//
// In matrix terms the count is sum(U·U ∘ U), one row product at a time:
// scatter row U(v) into a per-worker mark vector (the mask), then gather
// every row U(u), u in U(v), against it. Rows shorter than markCutoff skip
// the mask and merge — the hybrid LAGraph uses for its "dot" and "hash"
// triangle variants.
func TriangleCountCtx(ctx context.Context, g graph.View) (int64, error) {
	n := g.NumVertices()
	if n == 0 {
		return 0, roundErr("triangles", 0, parallel.CtxErr(ctx))
	}
	u, err := orientByRank(ctx, g)
	if err != nil {
		return 0, roundErr("triangles", 0, err)
	}
	// Per-worker state: one mark vector (allocated on the worker's first
	// marked row) and one padded counter; a worker runs one chunk at a
	// time, so neither needs synchronization.
	procs := parallel.CtxProcs(ctx)
	marks := make([][]bool, procs)
	type padded struct {
		c int64
		_ [56]byte
	}
	counts := make([]padded, procs)
	err = parallel.ForWorkerChunks(ctx, n, 0, func(worker, _, lo, hi int) {
		mk := marks[worker]
		var c int64
		for i := lo; i < hi; i++ {
			rv := u.row(uint32(i))
			if len(rv) < markCutoff {
				for _, x := range rv {
					c += intersectSortedCount(rv, u.row(x))
				}
				continue
			}
			if mk == nil {
				mk = make([]bool, n)
				marks[worker] = mk
			}
			for _, x := range rv {
				mk[x] = true
			}
			for _, x := range rv {
				for _, w := range u.row(x) {
					if mk[w] {
						c++
					}
				}
			}
			for _, x := range rv {
				mk[x] = false
			}
		}
		counts[worker].c += c
	})
	if err != nil {
		return 0, roundErr("triangles", 0, err)
	}
	var total int64
	for i := range counts {
		total += counts[i].c
	}
	return total, nil
}

// countTrianglesPerVertex accumulates, per vertex, the number of
// triangles containing it (each triangle credited to all three corners).
func countTrianglesPerVertex(ctx context.Context, g graph.View, acc []int64) error {
	u, err := orientByRank(ctx, g)
	if err != nil {
		return err
	}
	// Credit each triangle (v, x, w) with x, w in row(v), w in row(x) to
	// all three corners. Atomic adds: multiple v race on shared corners.
	return parallel.For(ctx, g.NumVertices(), func(i int) {
		v := uint32(i)
		a := u.row(v)
		for _, x := range a {
			b := u.row(x)
			for ai, bi := 0, 0; ai < len(a) && bi < len(b); {
				switch {
				case a[ai] < b[bi]:
					ai++
				case a[ai] > b[bi]:
					bi++
				default:
					atomic.AddInt64(&acc[v], 1)
					atomic.AddInt64(&acc[x], 1)
					atomic.AddInt64(&acc[a[ai]], 1)
					ai++
					bi++
				}
			}
		}
	})
}

// intersectSortedCount returns |a ∩ b| for sorted slices, merging when the
// lengths are comparable and galloping (binary search) when one side is
// much shorter.
func intersectSortedCount(a, b []uint32) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	// Gallop when b is much longer.
	if len(b) >= 8*len(a) {
		var c int64
		lo := 0
		for _, x := range a {
			lo += searchU32(b[lo:], x)
			if lo < len(b) && b[lo] == x {
				c++
				lo++
			}
		}
		return c
	}
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// searchU32 returns the first index i with s[i] >= x (len(s) if none).
func searchU32(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
