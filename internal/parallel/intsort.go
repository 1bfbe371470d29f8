package parallel

// Integer sorting primitives in the style of PBBS: stable counting sort
// over small integer keys, used to bucket edges by endpoint when building
// CSR graphs (much faster than comparison sorting) and as the inner pass
// of a radix sort for larger key spaces.

// CountingSortByKey stably sorts the items of in into out (same length)
// by key(item), where every key lies in [0, buckets). It returns the
// bucket boundary offsets (length buckets+1), which CSR construction uses
// directly as the row offsets. Runs the standard two-pass parallel
// counting sort with per-block count matrices.
func CountingSortByKey[T any](in, out []T, buckets int, key func(T) int) []int64 {
	n := len(in)
	if len(out) != n {
		panic("parallel: CountingSortByKey length mismatch")
	}
	offsets := make([]int64, buckets+1)
	if n == 0 {
		return offsets
	}
	blocks := numBlocks(n)
	if blocks == 1 {
		counts := make([]int64, buckets)
		for i := 0; i < n; i++ {
			counts[key(in[i])]++
		}
		var acc int64
		for b := 0; b < buckets; b++ {
			offsets[b] = acc
			acc += counts[b]
		}
		offsets[buckets] = acc
		cursor := make([]int64, buckets)
		copy(cursor, offsets[:buckets])
		for i := 0; i < n; i++ {
			k := key(in[i])
			out[cursor[k]] = in[i]
			cursor[k]++
		}
		return offsets
	}

	// counts[b*buckets + k] = occurrences of key k in block b.
	counts := make([]int64, blocks*buckets)
	ForGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		row := counts[b*buckets : (b+1)*buckets]
		for i := lo; i < hi; i++ {
			row[key(in[i])]++
		}
	})
	// Column-major scan: for each key, blocks in order — gives stability.
	var acc int64
	for k := 0; k < buckets; k++ {
		offsets[k] = acc
		for b := 0; b < blocks; b++ {
			c := counts[b*buckets+k]
			counts[b*buckets+k] = acc
			acc += c
		}
	}
	offsets[buckets] = acc
	ForGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		row := counts[b*buckets : (b+1)*buckets]
		for i := lo; i < hi; i++ {
			k := key(in[i])
			out[row[k]] = in[i]
			row[k]++
		}
	})
	return offsets
}

// radixBits is the digit width of RadixSortByKey passes.
const radixBits = 11

// RadixSortByKey stably sorts in by the non-negative integer key, which
// must be < keyBound, using least-significant-digit radix passes of
// CountingSortByKey. A scratch slice of the same length is allocated
// internally.
func RadixSortByKey[T any](in []T, keyBound int64, key func(T) int64) {
	n := len(in)
	if n <= 1 || keyBound <= 1 {
		return
	}
	buf := make([]T, n)
	src, dst := in, buf
	swapped := false
	for shift := 0; int64(1)<<shift < keyBound; shift += radixBits {
		s := shift
		CountingSortByKey(src, dst, 1<<radixBits, func(v T) int {
			return int((key(v) >> uint(s)) & ((1 << radixBits) - 1))
		})
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(in, src)
	}
}
