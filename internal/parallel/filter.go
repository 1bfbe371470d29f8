package parallel

import "context"

// Filter returns the elements of in satisfying pred, preserving their
// relative order.
func Filter[T any](ctx context.Context, in []T, pred func(T) bool) ([]T, error) {
	return pack(ctx, len(in), func(i int) bool { return pred(in[i]) }, func(i int) T { return in[i] })
}

// PackIndex returns, in increasing order, the indices i in [0, n) for which
// flag(i) is true. It is the "pack" primitive used to convert dense frontier
// representations to sparse ones.
func PackIndex[T Number](ctx context.Context, n int, flag func(i int) bool) ([]T, error) {
	return pack(ctx, n, flag, func(i int) T { return T(i) })
}

// pack returns val(i), in increasing i, for every i in [0, n) with keep(i)
// true. It runs the standard two-pass parallel filter: per-block counts,
// an exclusive scan over the counts, then a stable per-block copy. A
// single block takes one sequential pass instead, calling keep once per
// element.
func pack[T any](ctx context.Context, n int, keep func(i int) bool, val func(i int) T) ([]T, error) {
	if n == 0 {
		return nil, CtxErr(ctx)
	}
	blocks := numBlocks(ctx, n)
	if blocks == 1 {
		var out []T
		err := sequential(ctx, func() {
			out = make([]T, 0, 16)
			for i := 0; i < n; i++ {
				if keep(i) {
					out = append(out, val(i))
				}
			}
		})
		return out, err
	}
	counts := make([]int, blocks)
	if err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		c := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		counts[b] = c
	}); err != nil {
		return nil, err
	}
	total := 0
	for b, c := range counts {
		counts[b] = total
		total += c
	}
	out := make([]T, total)
	err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		k := counts[b]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[k] = val(i)
				k++
			}
		}
	})
	return out, err
}

// mapNew allocates and returns a slice of length n with element i set to
// fn(i), computed in parallel.
func mapNew[T any](ctx context.Context, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	return out, For(ctx, n, func(i int) { out[i] = fn(i) })
}

// Fill sets every element of s to v in parallel.
func Fill[T any](ctx context.Context, s []T, v T) error {
	return ForRange(ctx, len(s), func(lo, hi int) {
		sub := s[lo:hi]
		for i := range sub {
			sub[i] = v
		}
	})
}

// Iota fills s with s[i] = base + i.
func Iota[T Number](ctx context.Context, s []T, base T) error {
	return For(ctx, len(s), func(i int) { s[i] = base + T(i) })
}
