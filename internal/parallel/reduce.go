package parallel

// Number is the constraint satisfied by the built-in numeric types used
// throughout the framework (vertex IDs, degrees, weights, ranks).
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// reduce combines fn(i) for i in [0, n) with the associative operation
// combine, starting from the identity element id. The reduction tree shape
// is unspecified, so combine must be associative; it need not be
// commutative only if the per-block order is acceptable, so in practice use
// associative+commutative operations or order-insensitive ones.
func reduce[T any](n int, id T, fn func(i int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return id
	}
	blocks := numBlocks(n)
	if blocks == 1 {
		acc := id
		for i := 0; i < n; i++ {
			acc = combine(acc, fn(i))
		}
		return acc
	}
	partial := make([]T, blocks)
	forGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		acc := id
		for i := lo; i < hi; i++ {
			acc = combine(acc, fn(i))
		}
		partial[b] = acc
	})
	acc := id
	for _, p := range partial {
		acc = combine(acc, p)
	}
	return acc
}

// SumFunc returns the sum of fn(i) over [0, n) computed in parallel.
func SumFunc[T Number](n int, fn func(i int) T) T {
	var zero T
	return reduce(n, zero, fn, func(a, b T) T { return a + b })
}

// MaxFunc returns the maximum of fn(i) over [0, n). n must be positive.
func MaxFunc[T Number](n int, fn func(i int) T) T {
	if n <= 0 {
		panic("parallel: MaxFunc on empty range")
	}
	first := fn(0)
	return reduce(n, first, fn, func(a, b T) T {
		if a > b {
			return a
		}
		return b
	})
}

// Max returns the maximum element of s. s must be non-empty.
func Max[T Number](s []T) T {
	return MaxFunc(len(s), func(i int) T { return s[i] })
}

// CountFunc returns the number of i in [0, n) for which pred(i) is true.
func CountFunc(n int, pred func(i int) bool) int {
	return SumFunc(n, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// MaxIndexFunc returns the index i in [0, n) maximizing key(i), breaking
// ties toward the smallest index. n must be positive.
func MaxIndexFunc[T Number](n int, key func(i int) T) int {
	if n <= 0 {
		panic("parallel: MaxIndexFunc on empty range")
	}
	type kv struct {
		i int
		k T
	}
	best := reduce(n, kv{0, key(0)},
		func(i int) kv { return kv{i, key(i)} },
		func(a, b kv) kv {
			if b.k > a.k || (b.k == a.k && b.i < a.i) {
				return b
			}
			return a
		})
	return best.i
}
