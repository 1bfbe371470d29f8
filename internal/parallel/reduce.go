package parallel

import "context"

// Number is the constraint satisfied by the built-in numeric types used
// throughout the framework (vertex IDs, degrees, weights, ranks).
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// blockPartials runs block over the fixed blocks of [0, n) and returns
// their results in block order. The blocks are fixed by n and ctx's worker
// count, so a reduction that combines the partials in order is
// deterministic for a given worker count — floating-point sums included.
// Each reduction below runs its own loop over a block, on a local
// accumulator, so an element costs only the caller's fn call; the
// combining happens across blocks alone.
func blockPartials[T any](ctx context.Context, n int, block func(lo, hi int) T) ([]T, error) {
	blocks := numBlocks(ctx, n)
	partial := make([]T, blocks)
	err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		partial[b] = block(blockBounds(n, blocks, b))
	})
	return partial, err
}

// SumFunc returns the sum of fn(i) over [0, n) computed in parallel.
func SumFunc[T Number](ctx context.Context, n int, fn func(i int) T) (T, error) {
	var sum T
	if n <= 0 {
		return sum, CtxErr(ctx)
	}
	partial, err := blockPartials(ctx, n, func(lo, hi int) T {
		var acc T
		for i := lo; i < hi; i++ {
			acc += fn(i)
		}
		return acc
	})
	if err != nil {
		return sum, err
	}
	for _, p := range partial {
		sum += p
	}
	return sum, nil
}

// MaxFunc returns the maximum of fn(i) over [0, n). n must be positive.
func MaxFunc[T Number](ctx context.Context, n int, fn func(i int) T) (T, error) {
	if n <= 0 {
		panic("parallel: MaxFunc on empty range")
	}
	first := fn(0)
	// Every block starts from fn(0), as the result does: a block whose
	// elements are all below it contributes it again.
	partial, err := blockPartials(ctx, n, func(lo, hi int) T {
		acc := first
		for i := lo; i < hi; i++ {
			if v := fn(i); !(acc > v) {
				acc = v
			}
		}
		return acc
	})
	if err != nil {
		return first, err
	}
	best := first
	for _, p := range partial {
		if !(best > p) {
			best = p
		}
	}
	return best, nil
}

// Max returns the maximum element of s. s must be non-empty.
func Max[T Number](ctx context.Context, s []T) (T, error) {
	return MaxFunc(ctx, len(s), func(i int) T { return s[i] })
}

// CountFunc returns the number of i in [0, n) for which pred(i) is true.
func CountFunc(ctx context.Context, n int, pred func(i int) bool) (int, error) {
	if n <= 0 {
		return 0, CtxErr(ctx)
	}
	partial, err := blockPartials(ctx, n, func(lo, hi int) int {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		return c
	})
	if err != nil {
		return 0, err
	}
	count := 0
	for _, p := range partial {
		count += p
	}
	return count, nil
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
	first := kv{0, key(0)}
	// Within a block indices rise, so only a strictly larger key wins;
	// across blocks a tie goes to the smaller index.
	partial, err := blockPartials(ctx, n, func(lo, hi int) kv {
		best := first
		for i := lo; i < hi; i++ {
			if k := key(i); k > best.k {
				best = kv{i, k}
			}
		}
		return best
	})
	if err != nil {
		return first.i, err
	}
	best := first
	for _, p := range partial {
		if p.k > best.k || (p.k == best.k && p.i < best.i) {
			best = p
		}
	}
	return best.i, nil
}
