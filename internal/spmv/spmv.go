// Package spmv is the framework's second execution backend: GraphBLAS-style
// semiring kernels in the LAGraph tradition, operating directly over the
// existing CSR / transpose arrays (no new graph representation, no copy).
// Where edgeMap expresses an algorithm as per-round frontier expansion with
// user callbacks, a kernel here expresses the same algorithm as a sparse
// matrix-vector product: BFS levels are y = A^T ⊗ f over the (boolean, |, &)
// semiring with the visited set as a complement mask (bfs.go).
//
// PageRank and triangle counting have no kernel here although the wire
// accepts backend "spmv" for them: algo.PageRankCtx's row kernel already is
// the (+, ×) pull gather and algo.TriangleCountCtx the masked row product,
// so a copy in this package would be the same loop twice.
//
// The kernels run on the same worker-pool scheduler as edgeMap (package
// parallel), honor per-ctx proc leases, stop cooperatively at chunk
// granularity on ctx cancellation, contain worker panics as
// *parallel.PanicError, and feed core.RecordTraversal so both backends are
// observable through the same TraversalStats/SchedulerStats counters.
// Backend selection lives in internal/algo (Params.Backend); this package
// only provides the kernels.
//
// Fast paths gather over raw CSR slices when the view is a heap *graph.Graph;
// every kernel degrades to the View neighbor iterators otherwise (compressed,
// mmap, and delta-snapshot views), producing bit-identical results either way.
package spmv

import (
	"context"
	"math/bits"

	"ligra/internal/bitset"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// csr exposes the raw adjacency arrays of a heap CSR graph. Both directions
// may be nil (non-CSR views); symmetric graphs serve in-edges from the out
// arrays, exactly like graph.Graph's iterator methods.
type csr struct {
	outOff  []int64
	outDst  []uint32
	inOff   []int64
	inSrc   []uint32
	haveOut bool
	haveIn  bool
}

// rawCSR extracts the raw arrays when g is a heap CSR graph. A directed
// graph constructed without a transpose reports haveIn=false and pull-side
// kernels fall back to the InNeighbors iterator.
func rawCSR(g graph.View) csr {
	cg, ok := g.(*graph.Graph)
	if !ok {
		return csr{}
	}
	c := csr{outOff: cg.Offsets(), outDst: cg.Edges(), inOff: cg.InOffsets(), inSrc: cg.InEdges()}
	c.haveOut = c.outOff != nil
	c.haveIn = c.inOff != nil
	return c
}

// denseGrain returns the chunk grain for destination-indexed sweeps,
// rounded up to whole 64-bit bitset words so a chunk owns its output words
// outright and can use plain (non-atomic) stores, mirroring edgeMap's
// dense-block alignment.
func denseGrain(ctx context.Context, n int) int {
	g := parallel.AutoGrain(ctx, n)
	return (g + 63) &^ 63
}

// frontierOutDegrees sums the out-degrees of the set bits of f — the
// outDegrees(U) term of the push/pull direction heuristic. Unlike edgeMap's
// version it counts exactly (the sum doubles as the round's EdgesScanned
// stat), which costs one O(1) degree lookup per frontier vertex.
func frontierOutDegrees(ctx context.Context, g graph.View, f *bitset.Bitset) (int64, error) {
	words := f.Words()
	return parallel.SumFunc(ctx, len(words), func(wi int) int64 {
		w := words[wi]
		if w == 0 {
			return 0
		}
		base := uint32(wi * 64)
		var s int64
		for w != 0 {
			s += int64(g.OutDegree(base + uint32(bits.TrailingZeros64(w))))
			w &= w - 1
		}
		return s
	})
}
