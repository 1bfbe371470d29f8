package parallel

import "context"

// Number is the constraint satisfied by the built-in numeric types used
// throughout the framework (vertex IDs, degrees, weights, ranks).
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// reduce combines fn(i) for i in [0, n) with the associative operation
// combine, starting from the identity element id. The blocks are fixed by
// n and ctx's worker count and combined in block order, so a reduction is
// deterministic for a given worker count — floating-point sums included.
// combine must be associative; it need not be commutative.
func reduce[T any](ctx context.Context, n int, id T, fn func(i int) T, combine func(a, b T) T) (T, error) {
	if n <= 0 {
		return id, CtxErr(ctx)
	}
	blocks := numBlocks(ctx, n)
	partial := make([]T, blocks)
	err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		acc := id
		for i := lo; i < hi; i++ {
			acc = combine(acc, fn(i))
		}
		partial[b] = acc
	})
	if err != nil {
		return id, err
	}
	acc := id
	for _, p := range partial {
		acc = combine(acc, p)
	}
	return acc, nil
}

// SumFunc returns the sum of fn(i) over [0, n) computed in parallel.
func SumFunc[T Number](ctx context.Context, n int, fn func(i int) T) (T, error) {
	var zero T
	return reduce(ctx, n, zero, fn, func(a, b T) T { return a + b })
}

// MaxFunc returns the maximum of fn(i) over [0, n). n must be positive.
func MaxFunc[T Number](ctx context.Context, n int, fn func(i int) T) (T, error) {
	if n <= 0 {
		panic("parallel: MaxFunc on empty range")
	}
	first := fn(0)
	return reduce(ctx, n, first, fn, func(a, b T) T {
		if a > b {
			return a
		}
		return b
	})
}

// Max returns the maximum element of s. s must be non-empty.
func Max[T Number](ctx context.Context, s []T) (T, error) {
	return MaxFunc(ctx, len(s), func(i int) T { return s[i] })
}

// CountFunc returns the number of i in [0, n) for which pred(i) is true.
func CountFunc(ctx context.Context, n int, pred func(i int) bool) (int, error) {
	return SumFunc(ctx, n, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// MaxIndexFunc returns the index i in [0, n) maximizing key(i), breaking
// ties toward the smallest index. n must be positive.
func MaxIndexFunc[T Number](ctx context.Context, n int, key func(i int) T) (int, error) {
	if n <= 0 {
		panic("parallel: MaxIndexFunc on empty range")
	}
	type kv struct {
		i int
		k T
	}
	best, err := reduce(ctx, n, kv{0, key(0)},
		func(i int) kv { return kv{i, key(i)} },
		func(a, b kv) kv {
			if b.k > a.k || (b.k == a.k && b.i < a.i) {
				return b
			}
			return a
		})
	return best.i, err
}
