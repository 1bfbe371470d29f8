// Package graph provides the in-memory graph representation Ligra operates
// on: compressed sparse row (CSR) adjacency arrays for out-edges and, for
// directed graphs, the transpose (in-edges) needed by pull-based dense
// traversals. It also defines the View interface that lets alternative
// representations (e.g. the byte-compressed graphs of package compress)
// plug into the same edgeMap machinery, plus graph construction, I/O in
// Ligra's AdjacencyGraph exchange format, and structural statistics.
package graph

import "math"

// Vertex identifiers are dense integers in [0, NumVertices). uint32 matches
// Ligra's default 32-bit vertex IDs and halves memory traffic versus int64,
// which matters for traversal-bound workloads.

// View is the read interface edgeMap and the algorithms are written
// against. Both *Graph (CSR) and compressed representations implement it.
//
// The neighbor iterators invoke fn once per incident edge and stop early if
// fn returns false — dense (pull) traversals rely on this to stop scanning
// a destination's in-edges as soon as its Cond fails (e.g. its BFS parent
// is set). For unweighted graphs the weight argument is always 1.
type View interface {
	// NumVertices returns |V|.
	NumVertices() int
	// NumEdges returns the number of directed edges |E| (for symmetric
	// graphs each undirected edge counts twice, as in Ligra).
	NumEdges() int64
	// OutDegree returns the out-degree of v.
	OutDegree(v uint32) int
	// InDegree returns the in-degree of v (equals OutDegree for symmetric
	// graphs).
	InDegree(v uint32) int
	// OutNeighbors iterates over the targets of v's out-edges.
	OutNeighbors(v uint32, fn func(d uint32, w int32) bool)
	// InNeighbors iterates over the sources of v's in-edges.
	InNeighbors(v uint32, fn func(s uint32, w int32) bool)
	// Weighted reports whether the graph carries edge weights.
	Weighted() bool
	// Symmetric reports whether the graph is undirected (in == out).
	Symmetric() bool
}

// RowView is the row contract edgeMap traverses. OutRow and InRow return
// v's targets and the parallel weights (nil: every weight is 1). A view
// whose rows exist as slices (raw CSR, a delta overlay's replaced rows)
// returns them in place and ignores buf; one that must produce them (the
// compressed byte stream) decodes into buf, reusing its capacity. Either
// way the result is valid until buf's next use and must not be mutated.
// InRow returns the first min(max, in-degree) edges of the row, so a pull
// kernel that may stop early does not pay to decode the rest; max >= 0.
// Rows adapts every other view.
type RowView interface {
	View
	OutRow(v uint32, buf *Row) ([]uint32, []int32)
	InRow(v uint32, buf *Row, max int) ([]uint32, []int32)
}

// Row is a caller's scratch for RowView: one per goroutine, reused from
// row to row.
type Row struct {
	Targets []uint32
	Weights []int32
}

// Rows returns g's row source: g itself when it implements RowView, and
// otherwise an adapter that gathers each row from g's iterators into buf.
// A view that filters or rewrites edges (a mask, a transpose wrapper) must
// not get RowView by embedding its base's: its rows are not its base's.
func Rows(g View) RowView {
	if r, ok := g.(RowView); ok {
		return r
	}
	return iteratorRows{g}
}

// iteratorRows is the adapter Rows puts over a view without rows.
type iteratorRows struct{ View }

func (r iteratorRows) OutRow(v uint32, buf *Row) ([]uint32, []int32) {
	return buf.gather(r.Weighted(), math.MaxInt, func(fn func(uint32, int32) bool) { r.OutNeighbors(v, fn) })
}

func (r iteratorRows) InRow(v uint32, buf *Row, max int) ([]uint32, []int32) {
	return buf.gather(r.Weighted(), max, func(fn func(uint32, int32) bool) { r.InNeighbors(v, fn) })
}

// gather refills buf with the first max edges iterate yields.
func (buf *Row) gather(weighted bool, max int, iterate func(fn func(uint32, int32) bool)) ([]uint32, []int32) {
	ts, ws := buf.Targets[:0], buf.Weights[:0]
	if max > 0 {
		iterate(func(d uint32, w int32) bool {
			ts = append(ts, d)
			if weighted {
				ws = append(ws, w)
			}
			return len(ts) < max
		})
	}
	buf.Targets, buf.Weights = ts, ws
	if !weighted {
		return ts, nil
	}
	return ts, ws
}

// Prefix cuts a row to its first max edges, as InRow must.
func Prefix(ts []uint32, ws []int32, max int) ([]uint32, []int32) {
	if max < len(ts) {
		ts = ts[:max]
		if ws != nil {
			ws = ws[:max]
		}
	}
	return ts, ws
}

// Graph is a CSR (compressed sparse row) graph. Out-edges of vertex v are
// edges[offsets[v]:offsets[v+1]]; weights, if present, are parallel to
// edges. Directed graphs additionally store the transpose for pull-based
// traversal. Graphs are immutable after construction, which makes them safe
// for concurrent traversal without synchronization.
type Graph struct {
	n int
	m int64

	offsets []int64  // len n+1
	edges   []uint32 // len m
	weights []int32  // len m or nil

	// Transpose (in-edges); nil for symmetric graphs, where the out-arrays
	// serve both directions.
	inOffsets []int64
	inEdges   []uint32
	inWeights []int32

	symmetric bool
}

var _ RowView = (*Graph)(nil)

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.m }

// Symmetric reports whether the graph is undirected.
func (g *Graph) Symmetric() bool { return g.symmetric }

// Weighted reports whether the graph has edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v uint32) int {
	if g.symmetric {
		return g.OutDegree(v)
	}
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}

// OutNeighbors iterates over out-edges of v; fn returning false stops the
// iteration.
func (g *Graph) OutNeighbors(v uint32, fn func(d uint32, w int32) bool) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if g.weights == nil {
		for i := lo; i < hi; i++ {
			if !fn(g.edges[i], 1) {
				return
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		if !fn(g.edges[i], g.weights[i]) {
			return
		}
	}
}

// InNeighbors iterates over in-edges of v; fn returning false stops the
// iteration.
func (g *Graph) InNeighbors(v uint32, fn func(s uint32, w int32) bool) {
	if g.symmetric {
		g.OutNeighbors(v, fn)
		return
	}
	lo, hi := g.inOffsets[v], g.inOffsets[v+1]
	if g.inWeights == nil {
		for i := lo; i < hi; i++ {
			if !fn(g.inEdges[i], 1) {
				return
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		if !fn(g.inEdges[i], g.inWeights[i]) {
			return
		}
	}
}

// OutRow returns the raw CSR target slice for v (and the parallel weight
// slice, or nil). It never touches buf, which may be nil.
func (g *Graph) OutRow(v uint32, _ *Row) ([]uint32, []int32) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if g.weights == nil {
		return g.edges[lo:hi], nil
	}
	return g.edges[lo:hi], g.weights[lo:hi]
}

// InRow is OutRow for in-edges, cut to the first max.
func (g *Graph) InRow(v uint32, _ *Row, max int) ([]uint32, []int32) {
	offsets, edges, weights := g.inOffsets, g.inEdges, g.inWeights
	if g.symmetric {
		offsets, edges, weights = g.offsets, g.edges, g.weights
	}
	lo, hi := offsets[v], offsets[v+1]
	if weights == nil {
		return Prefix(edges[lo:hi], nil, max)
	}
	return Prefix(edges[lo:hi], weights[lo:hi], max)
}

// Offsets returns the CSR offset array (length NumVertices+1). Callers must
// not mutate it.
func (g *Graph) Offsets() []int64 { return g.offsets }

// InOffsets returns the transpose CSR offset array (length NumVertices+1);
// for symmetric graphs the out-arrays serve both directions, so it returns
// Offsets. Callers must not mutate it.
func (g *Graph) InOffsets() []int64 {
	if g.symmetric {
		return g.offsets
	}
	return g.inOffsets
}

// InEdges returns the transpose CSR source array (Edges for symmetric
// graphs). Callers must not mutate it.
func (g *Graph) InEdges() []uint32 {
	if g.symmetric {
		return g.edges
	}
	return g.inEdges
}

// InWeights returns the transpose CSR weight array (nil if unweighted;
// Weights for symmetric graphs). Callers must not mutate it.
func (g *Graph) InWeights() []int32 {
	if g.symmetric {
		return g.weights
	}
	return g.inWeights
}

// Edges returns the CSR target array. Callers must not mutate it.
func (g *Graph) Edges() []uint32 { return g.edges }

// Weights returns the CSR weight array (nil if unweighted). Callers must
// not mutate it.
func (g *Graph) Weights() []int32 { return g.weights }
