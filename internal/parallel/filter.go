package parallel

// Filter returns the elements of in satisfying pred, preserving their
// relative order. It runs the standard two-pass parallel filter: per-block
// counts, an exclusive scan over the counts, then a stable per-block copy.
func Filter[T any](in []T, pred func(T) bool) []T {
	return FilterIndex(in, func(_ int, v T) bool { return pred(v) })
}

// FilterIndex is Filter where the predicate also receives the element index.
func FilterIndex[T any](in []T, pred func(i int, v T) bool) []T {
	n := len(in)
	if n == 0 {
		return nil
	}
	blocks := numBlocks(n)
	if blocks == 1 {
		out := make([]T, 0, 16)
		for i, v := range in {
			if pred(i, v) {
				out = append(out, v)
			}
		}
		return out
	}
	counts := make([]int, blocks)
	ForGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i, in[i]) {
				c++
			}
		}
		counts[b] = c
	})
	total := ScanExclusive(counts, counts)
	out := make([]T, total)
	ForGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		k := counts[b]
		for i := lo; i < hi; i++ {
			if pred(i, in[i]) {
				out[k] = in[i]
				k++
			}
		}
	})
	return out
}

// PackIndex returns, in increasing order, the indices i in [0, n) for which
// flag(i) is true. It is the "pack" primitive used to convert dense frontier
// representations to sparse ones.
func PackIndex[T Number](n int, flag func(i int) bool) []T {
	if n == 0 {
		return nil
	}
	blocks := numBlocks(n)
	if blocks == 1 {
		out := make([]T, 0, 16)
		for i := 0; i < n; i++ {
			if flag(i) {
				out = append(out, T(i))
			}
		}
		return out
	}
	counts := make([]int, blocks)
	ForGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		c := 0
		for i := lo; i < hi; i++ {
			if flag(i) {
				c++
			}
		}
		counts[b] = c
	})
	total := ScanExclusive(counts, counts)
	out := make([]T, total)
	ForGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		k := counts[b]
		for i := lo; i < hi; i++ {
			if flag(i) {
				out[k] = T(i)
				k++
			}
		}
	})
	return out
}

// MapInto fills out[i] = fn(i) for i in [0, len(out)) in parallel.
func MapInto[T any](out []T, fn func(i int) T) {
	For(len(out), func(i int) { out[i] = fn(i) })
}

// MapNew allocates and returns a slice of length n with element i set to
// fn(i), computed in parallel.
func MapNew[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	MapInto(out, fn)
	return out
}

// Fill sets every element of s to v in parallel.
func Fill[T any](s []T, v T) {
	ForRange(len(s), func(lo, hi int) {
		sub := s[lo:hi]
		for i := range sub {
			sub[i] = v
		}
	})
}

// Iota fills s with s[i] = base + i.
func Iota[T Number](s []T, base T) {
	For(len(s), func(i int) { s[i] = base + T(i) })
}
