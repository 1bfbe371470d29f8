// Package core implements Ligra's programming interface — the vertexSubset
// data type and the edgeMap / vertexMap operators (Shun & Blelloch, PPoPP
// 2013, §4). This is the paper's primary contribution: a frontier-based
// abstraction whose traversal operator transparently switches between a
// sparse (push, source-driven) and a dense (pull, destination-driven)
// per-iteration representation based on frontier size, generalizing
// direction-optimizing BFS to arbitrary vertex-subset computations.
package core

import (
	"context"
	"math/bits"

	"ligra/internal/bitset"
	"ligra/internal/parallel"
)

// None is the sentinel vertex ID (2^32-1), used to mark empty slots while
// constructing sparse frontiers and as the "no parent / not found" value in
// applications.
const None = ^uint32(0)

// VertexSubset is a set of vertex IDs drawn from [0, n). It maintains up to
// two physical representations — a sparse ID array and a dense bit vector —
// converting lazily and caching the result, mirroring Ligra's vertexSubset
// with its sparse/dense duality. The exact size is always tracked.
//
// VertexSubsets are safe for concurrent reads; conversions (ToSparse,
// ToDense) mutate the cache and must not race with readers.
type VertexSubset struct {
	n      int
	size   int
	sparse []uint32       // nil when unknown
	dense  *bitset.Bitset // nil when unknown
}

// NewEmpty returns the empty subset over n vertices.
func NewEmpty(n int) *VertexSubset {
	return &VertexSubset{n: n, size: 0, sparse: []uint32{}}
}

// NewSingle returns the subset {v} over n vertices.
func NewSingle(n int, v uint32) *VertexSubset {
	if int(v) >= n {
		panic("core: vertex out of range")
	}
	return &VertexSubset{n: n, size: 1, sparse: []uint32{v}}
}

// NewSparse wraps a sparse ID array (takes ownership; IDs must be unique
// and < n, which is the caller's responsibility as in Ligra). A nil slice
// is a valid empty subset.
func NewSparse(n int, ids []uint32) *VertexSubset {
	if ids == nil {
		ids = []uint32{}
	}
	return &VertexSubset{n: n, size: len(ids), sparse: ids}
}

// NewDense wraps a dense bit vector of length n (takes ownership).
func NewDense(n int, bits *bitset.Bitset) *VertexSubset {
	if bits.Len() != n {
		panic("core: dense bit vector length mismatch")
	}
	return &VertexSubset{n: n, size: bits.Count(), dense: bits}
}

// NewAll returns the subset containing every vertex in [0, n).
func NewAll(n int) *VertexSubset {
	b := bitset.New(n)
	b.SetAll()
	return &VertexSubset{n: n, size: n, dense: b}
}

// NewFromFunc returns the subset of vertices v in [0, n) with pred(v) true.
func NewFromFunc(ctx context.Context, n int, pred func(v uint32) bool) (*VertexSubset, error) {
	b := bitset.New(n)
	count, err := parallel.CountFunc(ctx, n, func(i int) bool {
		if pred(uint32(i)) {
			b.SetAtomic(i)
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	return &VertexSubset{n: n, size: count, dense: b}, nil
}

// UniverseSize returns n, the size of the vertex ID space.
func (vs *VertexSubset) UniverseSize() int { return vs.n }

// Size returns the number of vertices in the subset.
func (vs *VertexSubset) Size() int { return vs.size }

// IsEmpty reports whether the subset is empty.
func (vs *VertexSubset) IsEmpty() bool { return vs.size == 0 }

// HasSparse reports whether the sparse representation is materialized.
func (vs *VertexSubset) HasSparse() bool { return vs.sparse != nil }

// HasDense reports whether the dense representation is materialized.
func (vs *VertexSubset) HasDense() bool { return vs.dense != nil }

// ToSparse materializes (and caches) the sparse ID array, in increasing
// vertex order, under ctx; an interrupted conversion caches nothing. The
// returned slice must not be mutated.
func (vs *VertexSubset) ToSparse(ctx context.Context) ([]uint32, error) {
	if vs.sparse == nil {
		ids, err := packBits(ctx, vs.dense)
		if err != nil {
			return nil, err
		}
		vs.sparse = ids
	}
	return vs.sparse, nil
}

// packBits converts a dense bit vector to its sorted ID array one word at
// a time: an exclusive scan over per-word popcounts sizes the output to
// exactly the member count (no full-universe allocation for tiny
// frontiers), then every word decodes its set bits into its own slot
// range independently.
func packBits(ctx context.Context, b *bitset.Bitset) ([]uint32, error) {
	words := b.Words()
	offsets, total, err := parallel.ScanFunc(ctx, len(words), func(wi int) int64 {
		return int64(bits.OnesCount64(words[wi]))
	})
	if err != nil || total == 0 {
		return []uint32{}, err
	}
	out := make([]uint32, total)
	err = parallel.ForRange(ctx, len(words), func(lo, hi int) {
		for wi := lo; wi < hi; wi++ {
			w := words[wi]
			if w == 0 {
				continue
			}
			k := offsets[wi]
			base := uint32(wi * 64)
			for w != 0 {
				out[k] = base + uint32(bits.TrailingZeros64(w))
				k++
				w &= w - 1
			}
		}
	})
	return out, err
}

// ToDense materializes (and caches) the dense bit vector under ctx; an
// interrupted conversion caches nothing. The returned bitset must not be
// mutated.
func (vs *VertexSubset) ToDense(ctx context.Context) (*bitset.Bitset, error) {
	if vs.dense == nil {
		b := bitset.New(vs.n)
		ids := vs.sparse
		if err := parallel.For(ctx, len(ids), func(i int) {
			b.SetAtomic(int(ids[i]))
		}); err != nil {
			return nil, err
		}
		vs.dense = b
	}
	return vs.dense, nil
}

// Contains reports whether v is in the subset.
func (vs *VertexSubset) Contains(v uint32) bool {
	if vs.dense != nil {
		return vs.dense.Get(int(v))
	}
	for _, x := range vs.sparse {
		if x == v {
			return true
		}
	}
	return false
}

// ForEach calls fn for every member vertex, in parallel, under ctx (nil =
// background): its worker cap bounds the loop, it is checked at chunk
// granularity, and a panic in fn is returned as a *parallel.PanicError.
// Dense subsets are walked a word at a time, skipping empty words entirely.
func (vs *VertexSubset) ForEach(ctx context.Context, fn func(v uint32)) error {
	if vs.sparse != nil {
		ids := vs.sparse
		return parallel.For(ctx, len(ids), func(i int) { fn(ids[i]) })
	}
	words := vs.dense.Words()
	return parallel.ForRange(ctx, len(words), func(lo, hi int) {
		for wi := lo; wi < hi; wi++ {
			w := words[wi]
			base := uint32(wi * 64)
			for w != 0 {
				fn(base + uint32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	})
}

// ForEachSeq calls fn for every member vertex sequentially in increasing
// order when dense (or insertion order when sparse).
func (vs *VertexSubset) ForEachSeq(fn func(v uint32)) {
	if vs.sparse != nil {
		for _, v := range vs.sparse {
			fn(v)
		}
		return
	}
	vs.dense.ForEachSet(func(i int) { fn(uint32(i)) })
}

// Clone returns an independent copy of the subset.
func (vs *VertexSubset) Clone() *VertexSubset {
	c := &VertexSubset{n: vs.n, size: vs.size}
	if vs.sparse != nil {
		c.sparse = append([]uint32(nil), vs.sparse...)
	}
	if vs.dense != nil {
		b := bitset.New(vs.n)
		b.CopyFrom(vs.dense)
		c.dense = b
	}
	return c
}
