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
	"errors"
	"fmt"
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
// through. It is immutable after construction (apply builds a new
// overlay per batch, sharing every row-table page the batch left alone),
// so concurrent traversal needs no synchronization — the same contract as
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
		return len(r.targets)
	}
	if int(v) < o.baseN {
		return o.base.OutDegree(v)
	}
	return 0
}

func (o *overlay) InDegree(v uint32) int {
	if r, ok := o.in.get(v); ok {
		return len(r.targets)
	}
	if int(v) < o.baseN {
		return o.base.InDegree(v)
	}
	return 0
}

func (r row) iterate(fn func(d uint32, w int32) bool) {
	if r.weights == nil {
		for _, d := range r.targets {
			if !fn(d, 1) {
				return
			}
		}
		return
	}
	for i, d := range r.targets {
		if !fn(d, r.weights[i]) {
			return
		}
	}
}

func (o *overlay) OutNeighbors(v uint32, fn func(d uint32, w int32) bool) {
	if r, ok := o.out.get(v); ok {
		r.iterate(fn)
		return
	}
	if int(v) < o.baseN {
		o.base.OutNeighbors(v, fn)
	}
}

func (o *overlay) InNeighbors(v uint32, fn func(s uint32, w int32) bool) {
	if r, ok := o.in.get(v); ok {
		r.iterate(fn)
		return
	}
	if int(v) < o.baseN {
		o.base.InNeighbors(v, fn)
	}
}

var _ graph.InBlockDecoder = (*overlay)(nil)

// DecodeInBlock implements graph.InBlockDecoder for overlays whose base
// has no rows to hand out (compressed, mmap): a dirty row is copied from
// its replacement, a clean one gathered through the base's iterator, so
// dense pull rounds still run a row kernel (core.EdgeFuncs.PullRow) with
// no per-edge callback. An overlay over raw CSR never gets here — it is a
// graph.RowView (csrOverlay) and edgeMap reads its rows in place.
func (o *overlay) DecodeInBlock(lo, hi uint32, skip func(v uint32) bool, blk *graph.InBlock) {
	k := int(hi - lo)
	if cap(blk.Offsets) < k+1 {
		blk.Offsets = make([]int64, k+1)
	}
	blk.Offsets = blk.Offsets[:k+1]
	targets, weights := blk.Targets[:0], blk.Weights[:0]
	for v := lo; v < hi; v++ {
		blk.Offsets[v-lo] = int64(len(targets))
		if skip != nil && skip(v) {
			continue
		}
		if r, ok := o.in.get(v); ok {
			targets = append(targets, r.targets...)
			weights = append(weights, r.weights...)
		} else if int(v) < o.baseN {
			o.base.InNeighbors(v, func(s uint32, w int32) bool {
				targets = append(targets, s)
				if o.weighted {
					weights = append(weights, w)
				}
				return true
			})
		}
	}
	blk.Offsets[k] = int64(len(targets))
	blk.Targets = targets
	blk.Weights = nil
	if o.weighted {
		blk.Weights = weights
	}
}

// csrOverlay is an overlay whose base is raw CSR. Every row of it, dirty
// or clean, already exists as a slice, so it is a graph.RowView and
// edgeMap traverses a live snapshot the way it traverses a flat graph.
type csrOverlay struct {
	*overlay
	csr *graph.Graph
}

var _ graph.RowView = csrOverlay{}

func (o csrOverlay) OutRow(v uint32) ([]uint32, []int32) {
	if r, ok := o.out.get(v); ok {
		return r.targets, r.weights
	}
	if int(v) < o.baseN {
		return o.csr.OutRow(v)
	}
	return nil, nil
}

func (o csrOverlay) InRow(v uint32) ([]uint32, []int32) {
	if r, ok := o.in.get(v); ok {
		return r.targets, r.weights
	}
	if int(v) < o.baseN {
		return o.csr.InRow(v)
	}
	return nil, nil
}

// view returns o as the view readers get: a csrOverlay when the base is
// raw CSR, o itself otherwise.
func (o *overlay) view() graph.View {
	if csr, ok := o.base.(*graph.Graph); ok {
		return csrOverlay{o, csr}
	}
	return o
}

// asOverlay undoes view: the overlay behind v, or nil when v is not a
// delta snapshot with un-compacted rows.
func asOverlay(v graph.View) *overlay {
	switch o := v.(type) {
	case *overlay:
		return o
	case csrOverlay:
		return o.overlay
	}
	return nil
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

	next := &overlay{
		base:      prev,
		baseN:     prevN,
		n:         n,
		weighted:  prev.Weighted(),
		symmetric: symmetric,
	}
	// Flatten overlay-over-overlay: share the previous overlay's base and
	// row tables, so chains of batches never deepen the read path.
	if po := asOverlay(prev); po != nil {
		next.base, next.baseN = po.base, po.baseN
		next.out, next.in = po.out, po.in
		next.churn = po.churn
	}

	b := rowBuilder{prev: prev}
	b.rows, _ = prev.(graph.RowView)
	vs, rows, eff, stats := b.rebuild(outOps, false)
	next.out = next.out.with(vs, rows)
	next.m = prev.NumEdges()
	for i, v := range vs {
		next.m += int64(len(rows[i].targets))
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
	return next.view(), eff, stats
}

// rowBuilder rebuilds the rows a batch touches. It reads prev's rows in
// place when prev has them (graph.RowView) and through the iterator into
// scratch otherwise.
type rowBuilder struct {
	prev    graph.View
	rows    graph.RowView // prev, when it has rows
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
	weighted := b.prev.Weighted()
	for i := 0; i < len(ops); {
		v := ops[i].row
		oldT, oldW := b.read(v, in)
		size := len(oldT)
		for j := i; j < len(ops) && ops[j].row == v; j++ {
			if !ops[j].del {
				size++
			}
		}
		r := row{targets: make([]uint32, 0, size)}
		if weighted {
			r.weights = make([]int32, 0, size)
		}
		// keep copies prev's edges [pos, hi) of the row through.
		pos := 0
		keep := func(hi int) {
			r.targets = append(r.targets, oldT[pos:hi]...)
			if weighted {
				r.weights = append(r.weights, oldW[pos:hi]...)
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
				r.targets = append(r.targets, nbr)
				if weighted {
					r.weights = append(r.weights, w)
				}
			}
		}
		keep(len(oldT))
		vs, rows = append(vs, v), append(rows, r)
	}
	return vs, rows, eff, st
}

// read returns v's row in prev, strictly ascending: in place when prev
// has rows and they are already sorted sets (the builders' and apply's
// own are), otherwise in the builder's scratch, valid until the next read.
func (b *rowBuilder) read(v uint32, in bool) ([]uint32, []int32) {
	if int(v) >= b.prev.NumVertices() {
		return nil, nil
	}
	var ts []uint32
	var ws []int32
	if b.rows != nil {
		if in {
			ts, ws = b.rows.InRow(v)
		} else {
			ts, ws = b.rows.OutRow(v)
		}
		if isStrictlyAscending(ts) {
			return ts, ws
		}
		b.scratch.targets = append(b.scratch.targets[:0], ts...)
		b.scratch.weights = append(b.scratch.weights[:0], ws...)
	} else {
		weighted := b.prev.Weighted()
		b.scratch.targets, b.scratch.weights = b.scratch.targets[:0], b.scratch.weights[:0]
		gather := func(d uint32, w int32) bool {
			b.scratch.targets = append(b.scratch.targets, d)
			if weighted {
				b.scratch.weights = append(b.scratch.weights, w)
			}
			return true
		}
		if in {
			b.prev.InNeighbors(v, gather)
		} else {
			b.prev.OutNeighbors(v, gather)
		}
	}
	ts, ws = b.scratch.targets, b.scratch.weights
	if len(ws) == 0 {
		ws = nil
	}
	if !isStrictlyAscending(ts) {
		ts, ws = sortedSet(ts, ws)
	}
	return ts, ws
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

func (r rowByTarget) Len() int           { return len(r.targets) }
func (r rowByTarget) Less(i, j int) bool { return r.targets[i] < r.targets[j] }
func (r rowByTarget) Swap(i, j int) {
	r.targets[i], r.targets[j] = r.targets[j], r.targets[i]
	r.weights[i], r.weights[j] = r.weights[j], r.weights[i]
}

// Materialize walks v and lays it out as a flat heap CSR graph — the
// compaction step that collapses an overlay chain (or converts any
// backend, e.g. a compressed/mmap view, into mutable-friendly CSR).
// Rows are copied as slices when v has them (graph.RowView) and through
// the iterator otherwise. The result is independent of v's backing
// storage.
func Materialize(v graph.View) (*graph.Graph, error) {
	n := v.NumVertices()
	if n == 0 {
		return nil, errors.New("delta: cannot materialize an empty view")
	}
	offsets := make([]int64, n+1)
	parallel.For(n, func(i int) { offsets[i+1] = int64(v.OutDegree(uint32(i))) })
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	m := offsets[n]
	edges := make([]uint32, m)
	var weights []int32
	if v.Weighted() {
		weights = make([]int32, m)
	}
	if rows, ok := v.(graph.RowView); ok {
		parallel.For(n, func(i int) {
			ts, ws := rows.OutRow(uint32(i))
			copy(edges[offsets[i]:], ts)
			if weights != nil {
				copy(weights[offsets[i]:], ws)
			}
		})
		return graph.FromCSR(offsets, edges, weights, v.Symmetric())
	}
	parallel.For(n, func(i int) {
		k := offsets[i]
		v.OutNeighbors(uint32(i), func(d uint32, w int32) bool {
			edges[k] = d
			if weights != nil {
				weights[k] = w
			}
			k++
			return true
		})
	})
	return graph.FromCSR(offsets, edges, weights, v.Symmetric())
}
