package graph

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"ligra/internal/parallel"
)

// Edge is a directed edge used during graph construction.
type Edge struct {
	Src, Dst uint32
	Weight   int32
}

// BuildOptions controls graph construction from edge lists.
type BuildOptions struct {
	// Symmetrize inserts the reverse of every edge and marks the graph
	// undirected. Applied before deduplication.
	Symmetrize bool
	// RemoveSelfLoops drops edges with Src == Dst.
	RemoveSelfLoops bool
	// RemoveDuplicates drops repeated (Src, Dst) pairs, keeping the first
	// occurrence in the sorted order (for weighted graphs the kept weight is
	// the minimum among duplicates, a natural choice for shortest-path
	// workloads).
	RemoveDuplicates bool
	// Weighted keeps the per-edge weights; otherwise weights are dropped
	// and the graph reports Weighted() == false.
	Weighted bool
}

// FromEdges builds a CSR graph with n vertices from the given edge list.
// The input slice is not modified. Vertex IDs must be < n.
//
// The build is one counting scatter and a per-row sort: count each
// source's kept edges, prefix-sum the counts into row boundaries, scatter
// every kept edge's target into its source's row, then sort (and
// deduplicate) each row in parallel and copy the rows into exactly sized
// arrays. A weighted build scatters packed words whose plain order is
// (target, weight), so the first of a run of duplicates is the minimum
// weight. The row sort makes the output independent of the scatter order
// and of the worker count. A directed graph's in-rows are the transpose
// of the finished out-rows.
func FromEdges(n int, edges []Edge, opts BuildOptions) (*Graph, error) {
	if n <= 0 {
		return nil, errors.New("graph: number of vertices must be positive")
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("graph: %d vertices exceeds the 32-bit vertex ID space", n)
	}
	// Construction has no deadline to observe; its loops fail only with a
	// contained panic, which FromEdges returns.
	ctx := context.Background()

	// The input is cut into blocks, one per worker, and every block counts
	// and scatters its own edges through its own row of counts, so no two
	// workers share a counter. Sharing per-row atomic cursors instead
	// contends on the hub rows and was slower than one sequential pass.
	// The count matrix is capped at 8 bytes per input edge.
	blocks := max(1, min(parallel.CtxProcs(ctx), len(edges)/n))
	counts := make([]int64, blocks*n)
	bad := make([]int, blocks)
	if err := forBlocks(ctx, len(edges), blocks, func(b, lo, hi int) {
		c := counts[b*n : (b+1)*n]
		bad[b] = -1
		for i, e := range edges[lo:hi] {
			if uint64(e.Src) >= uint64(n) || uint64(e.Dst) >= uint64(n) {
				bad[b] = lo + i
				return
			}
			if opts.RemoveSelfLoops && e.Src == e.Dst {
				continue
			}
			c[e.Src]++
			if opts.Symmetrize {
				c[e.Dst]++
			}
		}
	}); err != nil {
		return nil, err
	}
	for _, i := range bad {
		if i >= 0 {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) references vertex >= n=%d",
				i, edges[i].Src, edges[i].Dst, n)
		}
	}
	// Row v starts at starts[v]; inside it, block b's edges start at
	// counts[b*n+v], which the scatter advances as its cursor.
	starts := make([]int64, n+1)
	var acc int64
	for v := 0; v < n; v++ {
		starts[v] = acc
		for b := v; b < len(counts); b += n {
			counts[b], acc = acc, acc+counts[b]
		}
	}
	starts[n] = acc

	g := &Graph{n: n, symmetric: opts.Symmetrize}
	var err error
	if opts.Weighted {
		rows := make([]uint64, acc)
		if err = scatterRows(ctx, edges, blocks, counts, rows, opts, packWeighted); err != nil {
			return nil, err
		}
		if g.offsets, err = sortRows(ctx, starts, rows, opts.RemoveDuplicates, 32); err != nil {
			return nil, err
		}
		g.m = g.offsets[n]
		g.edges = make([]uint32, g.m)
		g.weights = make([]int32, g.m)
		err = parallel.ForRange(ctx, n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				k := g.offsets[v]
				for _, p := range rows[starts[v] : starts[v]+g.offsets[v+1]-k] {
					g.edges[k], g.weights[k] = uint32(p>>32), int32(uint32(p)^1<<31)
					k++
				}
			}
		})
	} else {
		rows := make([]uint32, acc)
		if err = scatterRows(ctx, edges, blocks, counts, rows, opts, func(d uint32, _ int32) uint32 { return d }); err != nil {
			return nil, err
		}
		if g.offsets, err = sortRows(ctx, starts, rows, opts.RemoveDuplicates, 0); err != nil {
			return nil, err
		}
		g.m = g.offsets[n]
		g.edges = rows
		if g.m < acc {
			g.edges = make([]uint32, g.m)
			err = parallel.ForRange(ctx, n, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					copy(g.edges[g.offsets[v]:g.offsets[v+1]], rows[starts[v]:])
				}
			})
		}
	}
	if err != nil {
		return nil, err
	}
	if !opts.Symmetrize {
		g.buildTranspose()
	}
	return g, nil
}

// forBlocks runs body(b, lo, hi) for each of blocks equal contiguous
// blocks [lo, hi) of [0, n), one chunk per block.
func forBlocks(ctx context.Context, n, blocks int, body func(b, lo, hi int)) error {
	return parallel.ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		body(b, b*n/blocks, (b+1)*n/blocks)
	})
}

// packWeighted packs a target and a weight into one word whose unsigned
// order is (target, weight): flipping the weight's sign bit maps int32
// order onto uint32 order.
func packWeighted(d uint32, w int32) uint64 {
	return uint64(d)<<32 | uint64(uint32(w)^1<<31)
}

// scatterRows writes every kept edge's packed target into its source's
// row (and, symmetrized, the reverse edge into its target's row). The
// edges are cut into blocks as in FromEdges; block b's cursor for row v
// is cursors[b*n+v].
func scatterRows[T uint32 | uint64](ctx context.Context, edges []Edge, blocks int, cursors []int64, rows []T,
	opts BuildOptions, pack func(d uint32, w int32) T) error {

	n := len(cursors) / blocks
	return forBlocks(ctx, len(edges), blocks, func(b, lo, hi int) {
		c := cursors[b*n : (b+1)*n]
		for _, e := range edges[lo:hi] {
			if opts.RemoveSelfLoops && e.Src == e.Dst {
				continue
			}
			rows[c[e.Src]] = pack(e.Dst, e.Weight)
			c[e.Src]++
			if opts.Symmetrize {
				rows[c[e.Dst]] = pack(e.Src, e.Weight)
				c[e.Dst]++
			}
		}
	})
}

// sortRows sorts every row rows[starts[v]:starts[v+1]] in place and, when
// dedupe is set, moves the first of each run of words equal above bit
// shift to the row's front. It returns the offsets of the rows as kept.
func sortRows[T uint32 | uint64](ctx context.Context, starts []int64, rows []T, dedupe bool, shift uint) ([]int64, error) {
	n := len(starts) - 1
	offsets := make([]int64, n+1)
	if err := parallel.ForRange(ctx, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := rows[starts[v]:starts[v+1]]
			slices.Sort(row)
			k := len(row)
			if dedupe && k > 1 {
				k = 1
				for _, x := range row[1:] {
					if x>>shift != row[k-1]>>shift {
						row[k] = x
						k++
					}
				}
			}
			offsets[v+1] = int64(k)
		}
	}); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	return offsets, nil
}

// FromCSR wraps pre-built CSR arrays as a Graph, validating invariants.
// offsets must have length n+1 with offsets[0]==0, be non-decreasing, and
// end at len(edges); every target must be < n. weights may be nil; when
// non-nil its length must equal len(edges). If symmetric is false a
// transpose is constructed.
func FromCSR(offsets []int64, edges []uint32, weights []int32, symmetric bool) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, errors.New("graph: empty offsets")
	}
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return nil, errors.New("graph: offsets[0] must be 0")
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
	}
	if offsets[n] != int64(len(edges)) {
		return nil, fmt.Errorf("graph: offsets end at %d but there are %d edges",
			offsets[n], len(edges))
	}
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("graph: %d weights for %d edges", len(weights), len(edges))
	}
	for i, d := range edges {
		if int(d) >= n {
			return nil, fmt.Errorf("graph: edge %d targets vertex %d >= n=%d", i, d, n)
		}
	}
	g := &Graph{
		n:         n,
		m:         int64(len(edges)),
		offsets:   offsets,
		edges:     edges,
		weights:   weights,
		symmetric: symmetric,
	}
	if !symmetric {
		g.buildTranspose()
	}
	return g, nil
}

// buildTranspose fills the in-edge CSR arrays from the out-edge arrays.
// Walking the sources in order leaves every in-row sorted by source, and
// a source's parallel edges in their out-row order.
func (g *Graph) buildTranspose() {
	g.inOffsets = make([]int64, g.n+1)
	for _, d := range g.edges {
		g.inOffsets[d+1]++
	}
	for v := 0; v < g.n; v++ {
		g.inOffsets[v+1] += g.inOffsets[v]
	}
	g.inEdges = make([]uint32, g.m)
	if g.weights != nil {
		g.inWeights = make([]int32, g.m)
	}
	g.transposeSlots(func(k int64, s uint32, i int64) {
		g.inEdges[k] = s
		if g.inWeights != nil {
			g.inWeights[k] = g.weights[i]
		}
	})
}

// transposeSlots is the transpose scatter: it calls put(k, s, i) for every
// out-edge i of every source s, in source order, where k is the edge's
// slot in the in-arrays laid out by g.inOffsets.
func (g *Graph) transposeSlots(put func(k int64, s uint32, i int64)) {
	cursor := make([]int64, g.n)
	copy(cursor, g.inOffsets[:g.n])
	for s := 0; s < g.n; s++ {
		for i := g.offsets[s]; i < g.offsets[s+1]; i++ {
			d := g.edges[i]
			put(cursor[d], uint32(s), i)
			cursor[d]++
		}
	}
}

// Transpose returns a graph with every edge reversed. For symmetric graphs
// it returns the receiver (transposition is the identity).
func (g *Graph) Transpose() *Graph {
	if g.symmetric {
		return g
	}
	return &Graph{
		n:         g.n,
		m:         g.m,
		offsets:   g.inOffsets,
		edges:     g.inEdges,
		weights:   g.inWeights,
		inOffsets: g.offsets,
		inEdges:   g.edges,
		inWeights: g.weights,
		symmetric: false,
	}
}

// AddWeights returns a copy of g carrying the weights produced by fn(i),
// where i indexes the out-edge array. For directed graphs the transposed
// weights are kept consistent with the forward weights. fn is called once
// per directed edge, concurrently over ranges of sources, so it must be
// safe for concurrent use. Symmetric graphs receive consistent weights
// per undirected edge only if fn is a function of the endpoint pair; the
// helper HashWeight provides such a function.
func (g *Graph) AddWeights(fn func(s, d uint32, i int64) int32) *Graph {
	ng := *g
	ng.weights = make([]int32, g.m)
	// Weighting has no deadline to observe; a panic in fn is re-raised
	// here as a *parallel.PanicError.
	if err := parallel.ForRange(context.Background(), g.n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
				ng.weights[i] = fn(uint32(v), g.edges[i], i)
			}
		}
	}); err != nil {
		panic(err)
	}
	if !g.symmetric {
		ng.inWeights = make([]int32, g.m)
		ng.transposeSlots(func(k int64, _ uint32, i int64) { ng.inWeights[k] = ng.weights[i] })
	}
	return &ng
}

// HashWeight is a deterministic weight function mapping an edge to a value
// in [1, maxW], symmetric in its endpoints so undirected edges get one
// weight. It matches the paper's Bellman-Ford setup of random integer edge
// weights.
func HashWeight(maxW int32) func(s, d uint32, i int64) int32 {
	return func(s, d uint32, _ int64) int32 {
		a, b := s, d
		if a > b {
			a, b = b, a
		}
		h := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xBF58476D1CE4E5B9
		h ^= h >> 31
		h *= 0x94D049BB133111EB
		h ^= h >> 29
		return int32(h%uint64(maxW)) + 1
	}
}
