package graph

import (
	"context"
	"errors"
	"fmt"

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
func FromEdges(n int, edges []Edge, opts BuildOptions) (*Graph, error) {
	if n <= 0 {
		return nil, errors.New("graph: number of vertices must be positive")
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("graph: %d vertices exceeds the 32-bit vertex ID space", n)
	}
	for i := range edges {
		if int(edges[i].Src) >= n || int(edges[i].Dst) >= n {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) references vertex >= n=%d",
				i, edges[i].Src, edges[i].Dst, n)
		}
	}

	// Construction has no deadline to observe; its loops fail only with a
	// contained panic, which FromEdges returns.
	ctx := context.Background()
	// Two allocations hold every transient of the build: the kept edges
	// (and, symmetrized, their reverses in its second half) and the radix
	// sort's scratch, shared by all of its passes. Filtering and
	// deduplication compact in place.
	k := 1
	if opts.Symmetrize {
		k = 2
	}
	arena := make([]Edge, k*len(edges))
	work := arena[:0:len(edges)]
	for _, e := range edges {
		if !opts.RemoveSelfLoops || e.Src != e.Dst {
			work = append(work, e)
		}
	}
	if opts.Symmetrize {
		m := len(work)
		work = arena[:2*m]
		if err := parallel.For(ctx, m, func(i int) {
			e := work[i]
			work[m+i] = Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight}
		}); err != nil {
			return nil, err
		}
	}
	scratch := make([]Edge, len(work))

	// Sort by (src, dst, weight) so CSR rows come out contiguous and
	// deduplication is a scan; "keep minimum weight among duplicates"
	// falls out of weight being the last key. Implemented as stable LSD
	// radix passes over the integer keys (least-significant key first),
	// which beats comparison sorting by a wide margin on edge arrays.
	if err := sortEdges(ctx, work, scratch, n, opts.Weighted, true); err != nil {
		return nil, err
	}

	if opts.RemoveDuplicates {
		kept := 0
		for i, e := range work {
			if i == 0 || work[kept-1].Src != e.Src || work[kept-1].Dst != e.Dst {
				work[kept] = e
				kept++
			}
		}
		work = work[:kept]
	}
	if opts.Symmetrize {
		scratch = nil // the transpose is the graph itself: no second sort
	}

	g := &Graph{
		n:         n,
		m:         int64(len(work)),
		symmetric: opts.Symmetrize,
	}
	var err error
	if g.offsets, g.edges, g.weights, err = buildCSR(ctx, n, work, opts.Weighted,
		func(e Edge) uint32 { return e.Src }, func(e Edge) uint32 { return e.Dst }); err != nil {
		return nil, err
	}

	if !opts.Symmetrize {
		// Build the transpose for pull-based dense traversal.
		if err := sortEdges(ctx, work, scratch, n, opts.Weighted, false); err != nil {
			return nil, err
		}
		if g.inOffsets, g.inEdges, g.inWeights, err = buildCSR(ctx, n, work, opts.Weighted,
			func(e Edge) uint32 { return e.Dst }, func(e Edge) uint32 { return e.Src }); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// sortEdges stably sorts edges lexicographically by (Src, Dst, Weight)
// when bySrc, else (Dst, Src, Weight), via LSD counting-sort passes that
// alternate with scratch.
func sortEdges(ctx context.Context, edges, scratch []Edge, n int, weighted, bySrc bool) error {
	if weighted {
		if err := parallel.RadixSortByKey(ctx, edges, scratch, 1<<32, func(e Edge) int64 {
			return int64(e.Weight) + (1 << 31)
		}); err != nil {
			return err
		}
	}
	minor := func(e Edge) int64 { return int64(e.Dst) }
	major := func(e Edge) int64 { return int64(e.Src) }
	if !bySrc {
		minor, major = major, minor
	}
	if err := parallel.RadixSortByKey(ctx, edges, scratch, int64(n), minor); err != nil {
		return err
	}
	return parallel.RadixSortByKey(ctx, edges, scratch, int64(n), major)
}

// buildCSR lays a sorted edge list out as offsets+targets(+weights). key
// extracts the CSR row (must be the sort key), val the stored endpoint.
func buildCSR(ctx context.Context, n int, sorted []Edge, weighted bool,
	key, val func(Edge) uint32) ([]int64, []uint32, []int32, error) {

	m := len(sorted)
	counts := make([]int64, n)
	for i := range sorted {
		counts[key(sorted[i])]++
	}
	offsets := make([]int64, n+1)
	var acc int64
	for v := 0; v < n; v++ {
		offsets[v] = acc
		acc += counts[v]
	}
	offsets[n] = acc

	targets := make([]uint32, m)
	var weights []int32
	if weighted {
		weights = make([]int32, m)
	}
	err := parallel.For(ctx, m, func(i int) {
		targets[i] = val(sorted[i])
		if weights != nil {
			weights[i] = sorted[i].Weight
		}
	})
	return offsets, targets, weights, err
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
func (g *Graph) buildTranspose() {
	counts := make([]int64, g.n)
	for _, d := range g.edges {
		counts[d]++
	}
	g.inOffsets = make([]int64, g.n+1)
	var acc int64
	for v := 0; v < g.n; v++ {
		g.inOffsets[v] = acc
		acc += counts[v]
	}
	g.inOffsets[g.n] = acc

	g.inEdges = make([]uint32, g.m)
	if g.weights != nil {
		g.inWeights = make([]int32, g.m)
	}
	cursor := make([]int64, g.n)
	copy(cursor, g.inOffsets[:g.n])
	for s := 0; s < g.n; s++ {
		lo, hi := g.offsets[s], g.offsets[s+1]
		for i := lo; i < hi; i++ {
			d := g.edges[i]
			k := cursor[d]
			cursor[d]++
			g.inEdges[k] = uint32(s)
			if g.inWeights != nil {
				g.inWeights[k] = g.weights[i]
			}
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
// per directed edge. Symmetric graphs receive consistent weights per
// undirected edge only if fn is a function of the endpoint pair; the helper
// HashWeight provides such a function.
func (g *Graph) AddWeights(fn func(s, d uint32, i int64) int32) *Graph {
	ng := *g
	ng.weights = make([]int32, g.m)
	for v := uint32(0); int(v) < g.n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			ng.weights[i] = fn(v, g.edges[i], i)
		}
	}
	if !g.symmetric {
		ng.inWeights = make([]int32, g.m)
		// Rebuild transpose weights so in/out stay consistent.
		ng.inOffsets, ng.inEdges = g.inOffsets, g.inEdges
		cursor := make([]int64, g.n)
		copy(cursor, g.inOffsets[:g.n])
		for s := 0; s < g.n; s++ {
			lo, hi := g.offsets[s], g.offsets[s+1]
			for i := lo; i < hi; i++ {
				d := g.edges[i]
				// Find the matching slot in the in-array: slots for d are
				// assigned in increasing s order, matching buildTranspose.
				k := cursor[d]
				cursor[d]++
				ng.inWeights[k] = ng.weights[i]
			}
		}
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
