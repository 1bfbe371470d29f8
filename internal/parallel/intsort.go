package parallel

import "context"

// Integer sorting primitives in the style of PBBS: stable counting sort
// over small integer keys, used to bucket edges by endpoint when building
// CSR graphs (much faster than comparison sorting) and as the inner pass
// of a radix sort for larger key spaces.

// countingSortByKey stably sorts the items of in into out (same length)
// by key(item), where every key lies in [0, buckets). It returns the
// bucket boundary offsets (length buckets+1), which CSR construction uses
// directly as the row offsets. Runs the standard two-pass parallel
// counting sort with per-block count matrices.
func countingSortByKey[T any](ctx context.Context, in, out []T, buckets int, key func(T) int) ([]int64, error) {
	n := len(in)
	if len(out) != n {
		panic("parallel: countingSortByKey length mismatch")
	}
	offsets := make([]int64, buckets+1)
	if n == 0 {
		return offsets, CtxErr(ctx)
	}
	blocks := numBlocks(ctx, n)
	if blocks == 1 {
		err := sequential(ctx, func() {
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
		})
		return offsets, err
	}

	// counts[b*buckets + k] = occurrences of key k in block b.
	counts := make([]int64, blocks*buckets)
	if err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		row := counts[b*buckets : (b+1)*buckets]
		for i := lo; i < hi; i++ {
			row[key(in[i])]++
		}
	}); err != nil {
		return nil, err
	}
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
	err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		row := counts[b*buckets : (b+1)*buckets]
		for i := lo; i < hi; i++ {
			k := key(in[i])
			out[row[k]] = in[i]
			row[k]++
		}
	})
	return offsets, err
}

// radixBits is the digit width of RadixSortByKey passes.
const radixBits = 11

// RadixSortByKey stably sorts in by the non-negative integer key, which
// must be < keyBound, using least-significant-digit radix passes of
// countingSortByKey that alternate between in and a scratch slice: buf
// when it holds at least len(in) elements, otherwise one allocated here.
// A caller sorting repeatedly passes the same buf and allocates once.
func RadixSortByKey[T any](ctx context.Context, in, buf []T, keyBound int64, key func(T) int64) error {
	n := len(in)
	if n <= 1 || keyBound <= 1 {
		return CtxErr(ctx)
	}
	if len(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	src, dst := in, buf
	swapped := false
	for shift := 0; int64(1)<<shift < keyBound; shift += radixBits {
		s := shift
		if _, err := countingSortByKey(ctx, src, dst, 1<<radixBits, func(v T) int {
			return int((key(v) >> uint(s)) & ((1 << radixBits) - 1))
		}); err != nil {
			return err
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(in, src)
	}
	return nil
}
