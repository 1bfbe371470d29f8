// Package delta adds a mutation path to Ligra's otherwise read-only
// graphs: versioned immutable snapshots plus a batched edge
// insert/delete log, in the shape shared-memory streaming systems
// converge on (the streaming-graph survey by Besta et al. and BLADYG in
// PAPERS.md). A Store wraps any graph.View — heap CSR, compressed, or
// mmap-backed — and applies update batches by building an overlay view:
// the base stays untouched, and only the adjacency rows the batch
// dirtied are replaced by freshly built rows. Readers pin the snapshot
// they started on and never block on writers; once the accumulated
// churn crosses a threshold, compaction walks the current view and
// materializes a flat CSR snapshot.
//
// The package also exploits the delta log for incremental
// recomputation: IncrementalCC re-unions only vertices touched by the
// batch, and IncrementalPageRank reseeds PageRank-Delta from the
// dirtied vertices (inc.go).
package delta

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// MaxVertexID caps the vertex ID space at 32 bits, matching the graph
// builder.
const MaxVertexID = 1<<31 - 1

// EdgeOp is one edge mutation. For symmetric (undirected) graphs an op
// names the undirected edge {Src, Dst} and is applied in both
// directions; for directed graphs it names the directed edge Src->Dst.
// Inserting an edge that already exists and deleting one that does not
// are no-ops (counted as ignored, not errors), so batches are
// idempotent under replay. Deletes match by endpoints regardless of
// weight. Weight is ignored on unweighted graphs.
type EdgeOp struct {
	Src    uint32 `json:"src"`
	Dst    uint32 `json:"dst"`
	Weight int32  `json:"weight,omitempty"`
	Del    bool   `json:"del,omitempty"`
}

// ValidateOps rejects ops no graph can apply: self-loops and endpoints
// beyond the 32-bit vertex ID space. Endpoints past the current vertex
// count are legal — they grow the graph.
func ValidateOps(ops []EdgeOp) error {
	for i, op := range ops {
		if op.Src == op.Dst {
			return fmt.Errorf("op %d: self-loop %d->%d rejected", i, op.Src, op.Dst)
		}
		if op.Src > MaxVertexID || op.Dst > MaxVertexID {
			return fmt.Errorf("op %d: vertex beyond 32-bit ID space", i)
		}
	}
	return nil
}

// overlay is a graph.View layered over a base view: adjacency rows the
// delta log dirtied are replaced wholesale, everything else reads
// through. It is immutable after construction (apply builds a new overlay
// per batch, sharing every row-table page the batch left alone), so
// concurrent traversal needs no synchronization — the same contract as
// *graph.Graph.
type overlay struct {
	base  graph.View
	baseN int
	n     int
	m     int64
	// out/in hold the full replacement row of every dirty vertex. On
	// symmetric graphs in is out (the same pages).
	out, in rowTable

	weighted, symmetric bool
	// churn accumulates effective ops applied since the base was last
	// materialized; compaction triggers on it.
	churn int64
}

var _ graph.View = (*overlay)(nil)

func (o *overlay) NumVertices() int { return o.n }
func (o *overlay) NumEdges() int64  { return o.m }
func (o *overlay) Weighted() bool   { return o.weighted }
func (o *overlay) Symmetric() bool  { return o.symmetric }

func (o *overlay) OutDegree(v uint32) int {
	if r, ok := o.out.get(v); ok {
		return len(r.Targets)
	}
	if int(v) < o.baseN {
		return o.base.OutDegree(v)
	}
	return 0
}

func (o *overlay) InDegree(v uint32) int {
	if r, ok := o.in.get(v); ok {
		return len(r.Targets)
	}
	if int(v) < o.baseN {
		return o.base.InDegree(v)
	}
	return 0
}

// OutNeighbors is View's temporary per-edge shim over OutRow.
func (o *overlay) OutNeighbors(v uint32, fn func(d uint32, w int32) bool) {
	graph.OutNeighbors(o, v, fn)
}

// OutRow returns a dirty row in place and a clean one from the base, so
// edgeMap traverses a live snapshot the way it traverses its base.
func (o *overlay) OutRow(v uint32, buf *graph.Row) ([]uint32, []int32) {
	if r, ok := o.out.get(v); ok {
		return r.Targets, r.Weights
	}
	if int(v) < o.baseN {
		return o.base.OutRow(v, buf)
	}
	return nil, nil
}

// InBase is the overlay's base when that is a raw CSR: with InReplaced,
// what lets a pull round read the rows no batch replaced straight out of
// the base's arrays.
func (o *overlay) InBase() *graph.Graph {
	g, _ := o.base.(*graph.Graph)
	return g
}

// InReplaced reads the replaced in-rows off the row table's page for lo:
// a page is 64 rows, one output word of a pull round.
func (o *overlay) InReplaced(lo uint32) (uint64, *[64]graph.Row) {
	var bits uint64
	var rows *[64]graph.Row
	if p := o.in.pageAt(int(lo >> pageShift)); p != nil {
		bits, rows = p.replaced, &p.rows
	}
	if past := int(lo) + pageRows - o.baseN; past > 0 {
		bits |= ^uint64(0) << uint(max(pageRows-past, 0))
	}
	return bits, rows
}

// InRow is OutRow for in-edges, cut to the first max.
func (o *overlay) InRow(v uint32, buf *graph.Row, max int) ([]uint32, []int32) {
	if r, ok := o.in.get(v); ok {
		return graph.Prefix(r.Targets, r.Weights, max)
	}
	if int(v) < o.baseN {
		return o.base.InRow(v, buf, max)
	}
	return nil, nil
}

// MemoryFootprint estimates heap bytes: the base's footprint plus the
// replacement rows and their page directory.
func (o *overlay) MemoryFootprint() int64 {
	var total int64
	if f, ok := o.base.(interface{ MemoryFootprint() int64 }); ok {
		total = f.MemoryFootprint()
	}
	perEdge := int64(4)
	if o.weighted {
		perEdge += 4
	}
	tables := []rowTable{o.out, o.in}
	if o.symmetric {
		tables = tables[:1]
	}
	for _, t := range tables {
		total += 8*int64(len(t.pages)) + 48*int64(t.rows) + perEdge*t.edges
	}
	return total
}

// FormatName reports the base backend's format with a "+delta" suffix,
// so /metrics shows which graphs carry un-compacted updates.
func (o *overlay) FormatName() string {
	base := "csr"
	if f, ok := o.base.(interface{ FormatName() string }); ok {
		base = f.FormatName()
	}
	return base + "+delta"
}

// MappedBytes passes through the base's mmap residency: an overlay over
// a mapped graph still reads the mapping.
func (o *overlay) MappedBytes() int64 {
	if f, ok := o.base.(interface{ MappedBytes() int64 }); ok {
		return f.MappedBytes()
	}
	return 0
}

// DirtyRows reports how many adjacency rows the overlay replaces.
func (o *overlay) DirtyRows() int {
	if o.symmetric {
		return o.out.rows
	}
	return o.out.rows + o.in.rows
}

// applyStats summarizes one batch application.
type applyStats struct {
	inserted int64 // effective directed edges added
	deleted  int64 // effective directed edges removed
	ignored  int64 // no-op ops (insert-existing / delete-missing)
}

// rowOp is one directed op of a batch, keyed by the row it edits: row is
// the source and nbr the target when out-rows are rebuilt, the reverse
// for in-rows.
type rowOp struct {
	row, nbr uint32
	w        int32
	del      bool
}

// sortRowOps orders ops by (row, nbr), keeping batch order among ops on
// the same edge, so insert-then-delete and delete-then-insert resolve the
// way the client wrote them.
func sortRowOps(ops []rowOp) {
	slices.SortStableFunc(ops, func(a, b rowOp) int {
		if c := cmp.Compare(a.row, b.row); c != 0 {
			return c
		}
		return cmp.Compare(a.nbr, b.nbr)
	})
}

// apply layers ops over prev, returning the new view, the effective
// directed ops (for symmetric graphs each effective undirected op
// appears once per direction), and counts. prev is not modified. Touched
// rows are rebuilt in ascending vertex order, so the effective-op list is
// the same on every run — ordered by (Src, Dst), batch order among ops on
// one edge — and the returned view shares prev's untouched row-table
// pages, so the cost is in the rows the batch dirties, not in |V|, |E|
// or the rows dirtied before it.
func apply(prev graph.View, ops []EdgeOp) (graph.View, []EdgeOp, applyStats) {
	symmetric := prev.Symmetric()
	prevN := prev.NumVertices()

	// Both directions of a symmetric op see the same subsequence of the
	// batch, so the two rows decide consistently.
	outOps := make([]rowOp, 0, len(ops))
	n := prevN
	for _, op := range ops {
		outOps = append(outOps, rowOp{row: op.Src, nbr: op.Dst, w: op.Weight, del: op.Del})
		if symmetric {
			outOps = append(outOps, rowOp{row: op.Dst, nbr: op.Src, w: op.Weight, del: op.Del})
		}
		n = max(n, int(op.Src)+1, int(op.Dst)+1)
	}
	sortRowOps(outOps)

	b := rowBuilder{rows: prev}
	next := &overlay{
		base:      b.rows,
		baseN:     prevN,
		n:         n,
		weighted:  prev.Weighted(),
		symmetric: symmetric,
	}
	// Flatten overlay-over-overlay: share the previous overlay's base and
	// row tables, so chains of batches never deepen the read path.
	if po, ok := prev.(*overlay); ok {
		next.base, next.baseN = po.base, po.baseN
		next.out, next.in = po.out, po.in
		next.churn = po.churn
	}

	vs, rows, eff, stats := b.rebuild(outOps, false)
	next.out = next.out.with(vs, rows)
	next.m = prev.NumEdges()
	for i, v := range vs {
		next.m += int64(len(rows[i].Targets))
		if int(v) < prevN {
			next.m -= int64(prev.OutDegree(v))
		}
	}
	if symmetric {
		next.in = next.out
	} else {
		// Directed graphs mirror the effective ops onto the in-rows so
		// pull traversals see the same edge set as push traversals.
		inOps := make([]rowOp, len(eff))
		for i, e := range eff {
			inOps[i] = rowOp{row: e.Dst, nbr: e.Src, w: e.Weight, del: e.Del}
		}
		sortRowOps(inOps)
		vs, rows, _, _ = b.rebuild(inOps, true)
		next.in = next.in.with(vs, rows)
	}
	next.churn += stats.inserted + stats.deleted
	return next, eff, stats
}

// rowBuilder rebuilds the rows a batch touches, reading prev's rows
// through the row contract.
type rowBuilder struct {
	rows    graph.View // prev's
	buf     graph.Row
	scratch row
}

// rebuild applies ops — sorted by sortRowOps — to prev's out-rows (or
// in-rows) and returns the touched vertices in ascending order, their
// replacement rows, the effective ops and the counts. Rows are allocated
// one by one in vertex order, which is what lays a large batch's rows out
// nearly like CSR: the allocator hands out each size class sequentially.
// (One slab per batch read no faster and kept the whole slab alive until
// the last row in it was replaced: +10 MiB on a 26 MiB deep overlay.) A
// row the batch touches comes out sorted and deduplicated even when every
// op on it was a no-op.
func (b *rowBuilder) rebuild(ops []rowOp, in bool) (vs []uint32, rows []row, eff []EdgeOp, st applyStats) {
	weighted := b.rows.Weighted()
	for i := 0; i < len(ops); {
		v := ops[i].row
		oldT, oldW := b.read(v, in)
		size := len(oldT)
		for j := i; j < len(ops) && ops[j].row == v; j++ {
			if !ops[j].del {
				size++
			}
		}
		r := row{Targets: make([]uint32, 0, size)}
		if weighted {
			r.Weights = make([]int32, 0, size)
		}
		// keep copies prev's edges [pos, hi) of the row through.
		pos := 0
		keep := func(hi int) {
			r.Targets = append(r.Targets, oldT[pos:hi]...)
			if weighted {
				r.Weights = append(r.Weights, oldW[pos:hi]...)
			}
			pos = hi
		}
		for i < len(ops) && ops[i].row == v {
			nbr := ops[i].nbr
			k, present := slices.BinarySearch(oldT[pos:], nbr)
			keep(pos + k)
			w := int32(1)
			if present {
				if weighted {
					w = oldW[pos]
				}
				pos++
			}
			// Every op on this edge, in batch order; membership decides
			// effectiveness.
			for ; i < len(ops) && ops[i].row == v && ops[i].nbr == nbr; i++ {
				switch op := ops[i]; {
				case op.del && present:
					present = false
					st.deleted++
					eff = append(eff, EdgeOp{Src: v, Dst: nbr, Del: true})
				case !op.del && !present:
					present = true
					if weighted {
						w = op.w
					}
					st.inserted++
					eff = append(eff, EdgeOp{Src: v, Dst: nbr, Weight: w})
				default:
					st.ignored++
				}
			}
			if present {
				r.Targets = append(r.Targets, nbr)
				if weighted {
					r.Weights = append(r.Weights, w)
				}
			}
		}
		keep(len(oldT))
		vs, rows = append(vs, v), append(rows, r)
	}
	return vs, rows, eff, st
}

// read returns v's row in prev, strictly ascending and valid until the
// next read: as prev's row source returns it when that is already a sorted
// set (the builders' and apply's own rows are), otherwise sorted and
// deduplicated in the builder's scratch.
func (b *rowBuilder) read(v uint32, in bool) ([]uint32, []int32) {
	if int(v) >= b.rows.NumVertices() {
		return nil, nil
	}
	var ts []uint32
	var ws []int32
	if in {
		ts, ws = b.rows.InRow(v, &b.buf, math.MaxInt)
	} else {
		ts, ws = b.rows.OutRow(v, &b.buf)
	}
	if isStrictlyAscending(ts) {
		return ts, ws
	}
	// An in-place row belongs to prev: sort a copy.
	b.scratch.Targets = append(b.scratch.Targets[:0], ts...)
	b.scratch.Weights = append(b.scratch.Weights[:0], ws...)
	ts, ws = b.scratch.Targets, b.scratch.Weights
	if len(ws) == 0 {
		ws = nil
	}
	return sortedSet(ts, ws)
}

func isStrictlyAscending(ts []uint32) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i-1] >= ts[i] {
			return false
		}
	}
	return true
}

// sortedSet sorts a row in place by target and drops duplicate targets,
// keeping the last occurrence's weight.
func sortedSet(ts []uint32, ws []int32) ([]uint32, []int32) {
	if ws == nil {
		slices.Sort(ts)
		return slices.Compact(ts), nil
	}
	sort.Stable(rowByTarget{ts, ws})
	k := 0
	for i := range ts {
		if i+1 < len(ts) && ts[i+1] == ts[i] {
			continue
		}
		ts[k], ws[k] = ts[i], ws[i]
		k++
	}
	return ts[:k], ws[:k]
}

type rowByTarget row

func (r rowByTarget) Len() int           { return len(r.Targets) }
func (r rowByTarget) Less(i, j int) bool { return r.Targets[i] < r.Targets[j] }
func (r rowByTarget) Swap(i, j int) {
	r.Targets[i], r.Targets[j] = r.Targets[j], r.Targets[i]
	r.Weights[i], r.Weights[j] = r.Weights[j], r.Weights[i]
}

// Materialize walks v and lays it out as a flat heap CSR graph — the
// compaction step that collapses an overlay chain (or converts any
// backend, e.g. a compressed/mmap view, into mutable-friendly CSR).
// Rows are copied from v's row source; the result is independent of v's
// backing storage. The copy runs under ctx's worker cap and deadline.
func Materialize(ctx context.Context, v graph.View) (*graph.Graph, error) {
	n := v.NumVertices()
	if n == 0 {
		return nil, errors.New("delta: cannot materialize an empty view")
	}
	offsets := make([]int64, n+1)
	if err := parallel.For(ctx, n, func(i int) { offsets[i+1] = int64(v.OutDegree(uint32(i))) }); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	m := offsets[n]
	edges := make([]uint32, m)
	var weights []int32
	if v.Weighted() {
		weights = make([]int32, m)
	}
	if err := parallel.ForRange(ctx, n, func(lo, hi int) {
		var buf graph.Row
		for i := lo; i < hi; i++ {
			ts, ws := v.OutRow(uint32(i), &buf)
			copy(edges[offsets[i]:], ts)
			if weights != nil {
				copy(weights[offsets[i]:], ws)
			}
		}
	}); err != nil {
		return nil, err
	}
	return graph.FromCSR(offsets, edges, weights, v.Symmetric())
}
