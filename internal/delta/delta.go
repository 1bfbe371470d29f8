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
	"errors"
	"fmt"
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

// row is one replacement adjacency row: targets sorted ascending,
// weights parallel (nil on unweighted graphs). Rows built by apply are
// sets — a batch that touches a row also deduplicates it.
type row struct {
	targets []uint32
	weights []int32
}

// overlay is a graph.View layered over a base view: adjacency rows the
// delta log dirtied are replaced wholesale, everything else reads
// through. It is immutable after construction (apply builds a new
// overlay per batch, sharing untouched rows), so concurrent traversal
// needs no synchronization — the same contract as *graph.Graph.
type overlay struct {
	base  graph.View
	baseN int
	n     int
	m     int64
	// out/in map a dirty vertex to its full replacement row. in is nil
	// for symmetric graphs (out serves both directions).
	out map[uint32]row
	in  map[uint32]row

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
	if r, ok := o.out[v]; ok {
		return len(r.targets)
	}
	if int(v) < o.baseN {
		return o.base.OutDegree(v)
	}
	return 0
}

func (o *overlay) InDegree(v uint32) int {
	if o.symmetric {
		return o.OutDegree(v)
	}
	if r, ok := o.in[v]; ok {
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
	if r, ok := o.out[v]; ok {
		r.iterate(fn)
		return
	}
	if int(v) < o.baseN {
		o.base.OutNeighbors(v, fn)
	}
}

func (o *overlay) InNeighbors(v uint32, fn func(s uint32, w int32) bool) {
	if o.symmetric {
		o.OutNeighbors(v, fn)
		return
	}
	if r, ok := o.in[v]; ok {
		r.iterate(fn)
		return
	}
	if int(v) < o.baseN {
		o.base.InNeighbors(v, fn)
	}
}

var _ graph.InBlockDecoder = (*overlay)(nil)

// DecodeInBlock implements graph.InBlockDecoder, so dense pull rounds
// hand a row kernel (core.EdgeFuncs.PullRow) an overlay's in-rows as
// slices like any other backend's: a dirty row is copied from its
// replacement, a clean one from the base's CSR arrays — or gathered
// through the base's iterator when the base has none. The copy is a
// sequential append per row; what it buys is a traversal with no per-edge
// callback.
func (o *overlay) DecodeInBlock(lo, hi uint32, skip func(v uint32) bool, blk *graph.InBlock) {
	k := int(hi - lo)
	if cap(blk.Offsets) < k+1 {
		blk.Offsets = make([]int64, k+1)
	}
	blk.Offsets = blk.Offsets[:k+1]
	targets, weights := blk.Targets[:0], blk.Weights[:0]
	dirty := o.in
	if o.symmetric {
		dirty = o.out
	}
	csr, _ := o.base.(*graph.Graph)
	for v := lo; v < hi; v++ {
		blk.Offsets[v-lo] = int64(len(targets))
		if skip != nil && skip(v) {
			continue
		}
		if r, ok := dirty[v]; ok {
			targets = append(targets, r.targets...)
			weights = append(weights, r.weights...)
		} else if int(v) >= o.baseN {
			continue
		} else if csr != nil {
			ts, ws := csr.InEdgesSlice(v)
			targets = append(targets, ts...)
			weights = append(weights, ws...)
		} else {
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

// MemoryFootprint estimates heap bytes: the base's footprint plus the
// replacement rows.
func (o *overlay) MemoryFootprint() int64 {
	var total int64
	if f, ok := o.base.(interface{ MemoryFootprint() int64 }); ok {
		total = f.MemoryFootprint()
	}
	perEdge := int64(4)
	if o.weighted {
		perEdge += 4
	}
	for _, r := range o.out {
		total += 48 + perEdge*int64(len(r.targets))
	}
	for _, r := range o.in {
		total += 48 + perEdge*int64(len(r.targets))
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
func (o *overlay) DirtyRows() int { return len(o.out) + len(o.in) }

// applyStats summarizes one batch application.
type applyStats struct {
	inserted int64 // effective directed edges added
	deleted  int64 // effective directed edges removed
	ignored  int64 // no-op ops (insert-existing / delete-missing)
}

// opRef is one directed op in batch order, grouped per source row.
type opRef struct {
	dst uint32
	w   int32
	del bool
	seq int
}

// apply layers ops over prev, returning the new view, the effective
// directed ops (for symmetric graphs each effective undirected op
// appears once per direction), and counts. prev is not modified. The
// returned view shares the untouched rows of prev, so it is cheap in
// the number of dirtied rows, not in |V| or |E|.
func apply(prev graph.View, ops []EdgeOp) (graph.View, []EdgeOp, applyStats) {
	symmetric, weighted := prev.Symmetric(), prev.Weighted()
	prevN := prev.NumVertices()

	// Group directed ops by source row, preserving batch order within a
	// row so insert-then-delete and delete-then-insert resolve the way
	// the client wrote them. For symmetric graphs both directions of an
	// op see the same subsequence, so the two rows decide consistently.
	byRow := make(map[uint32][]opRef)
	n := prevN
	for seq, op := range ops {
		byRow[op.Src] = append(byRow[op.Src], opRef{dst: op.Dst, w: op.Weight, del: op.Del, seq: seq})
		if symmetric {
			byRow[op.Dst] = append(byRow[op.Dst], opRef{dst: op.Src, w: op.Weight, del: op.Del, seq: seq})
		}
		if int(op.Src) >= n {
			n = int(op.Src) + 1
		}
		if int(op.Dst) >= n {
			n = int(op.Dst) + 1
		}
	}

	next := &overlay{
		base:      prev,
		baseN:     prevN,
		n:         n,
		m:         prev.NumEdges(),
		weighted:  weighted,
		symmetric: symmetric,
	}
	// Flatten overlay-over-overlay: share the previous overlay's base
	// and clone its row maps, so chains of batches never deepen the
	// read path past one indirection.
	if po, ok := prev.(*overlay); ok {
		next.base, next.baseN = po.base, po.baseN
		next.out = make(map[uint32]row, len(po.out)+len(byRow))
		for v, r := range po.out {
			next.out[v] = r
		}
		if !symmetric {
			next.in = make(map[uint32]row, len(po.in)+len(byRow))
			for v, r := range po.in {
				next.in[v] = r
			}
		}
		next.churn = po.churn
	} else {
		next.out = make(map[uint32]row, len(byRow))
		if !symmetric {
			next.in = make(map[uint32]row, len(byRow))
		}
	}

	var stats applyStats
	var eff []EdgeOp
	for v, refs := range byRow {
		oldDeg := 0
		if int(v) < prev.NumVertices() {
			oldDeg = prev.OutDegree(v)
		}
		cur := make(map[uint32]int32, oldDeg+len(refs))
		if int(v) < prev.NumVertices() {
			prev.OutNeighbors(v, func(d uint32, w int32) bool {
				cur[d] = w
				return true
			})
		}
		// Apply in batch order; membership decides effectiveness.
		sort.Slice(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })
		for _, ref := range refs {
			_, present := cur[ref.dst]
			if ref.del {
				if !present {
					stats.ignored++
					continue
				}
				delete(cur, ref.dst)
				stats.deleted++
				eff = append(eff, EdgeOp{Src: v, Dst: ref.dst, Del: true})
			} else {
				if present {
					stats.ignored++
					continue
				}
				w := ref.w
				if !weighted {
					w = 1
				}
				cur[ref.dst] = w
				stats.inserted++
				eff = append(eff, EdgeOp{Src: v, Dst: ref.dst, Weight: w})
			}
		}
		nr := row{targets: make([]uint32, 0, len(cur))}
		for d := range cur {
			nr.targets = append(nr.targets, d)
		}
		sort.Slice(nr.targets, func(i, j int) bool { return nr.targets[i] < nr.targets[j] })
		if weighted {
			nr.weights = make([]int32, len(nr.targets))
			for i, d := range nr.targets {
				nr.weights[i] = cur[d]
			}
		}
		next.out[v] = nr
		next.m += int64(len(nr.targets) - oldDeg)
	}

	// Directed graphs mirror the effective ops onto the in-rows so pull
	// traversals see the same edge set as push traversals.
	if !symmetric {
		byDst := make(map[uint32][]EdgeOp)
		for _, e := range eff {
			byDst[e.Dst] = append(byDst[e.Dst], e)
		}
		for v, es := range byDst {
			cur := make(map[uint32]int32)
			if int(v) < prev.NumVertices() {
				prev.InNeighbors(v, func(s uint32, w int32) bool {
					cur[s] = w
					return true
				})
			}
			for _, e := range es {
				if e.Del {
					delete(cur, e.Src)
				} else {
					cur[e.Src] = e.Weight
				}
			}
			nr := row{targets: make([]uint32, 0, len(cur))}
			for s := range cur {
				nr.targets = append(nr.targets, s)
			}
			sort.Slice(nr.targets, func(i, j int) bool { return nr.targets[i] < nr.targets[j] })
			if weighted {
				nr.weights = make([]int32, len(nr.targets))
				for i, s := range nr.targets {
					nr.weights[i] = cur[s]
				}
			}
			next.in[v] = nr
		}
	}
	next.churn += stats.inserted + stats.deleted
	return next, eff, stats
}

// Materialize walks v and lays it out as a flat heap CSR graph — the
// compaction step that collapses an overlay chain (or converts any
// backend, e.g. a compressed/mmap view, into mutable-friendly CSR).
// The result is independent of v's backing storage.
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
