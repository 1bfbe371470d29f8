package parallel

import "context"

// Integer sorting primitives in the style of PBBS: a stable counting sort
// over small integer keys, the inner pass of a radix sort for larger key
// spaces that buckets edges by endpoint when building CSR graphs (much
// faster than comparison sorting).

// countingSortByKey stably sorts the items of in into out (same length)
// by key(item), where every key lies in [0, buckets). counts is the
// caller's scratch, reused from call to call: len(counts)/buckets blocks
// of buckets counts each, one per block of the input. Runs the standard
// two-pass parallel counting sort with per-block count rows.
func countingSortByKey[T any](ctx context.Context, in, out []T, buckets int, counts []int64, key func(T) int) error {
	n := len(in)
	if len(out) != n {
		panic("parallel: countingSortByKey length mismatch")
	}
	if n == 0 {
		return CtxErr(ctx)
	}
	blocks := len(counts) / buckets
	counts = counts[:blocks*buckets]
	clear(counts)
	if blocks == 1 {
		return sequential(ctx, func() {
			for i := 0; i < n; i++ {
				counts[key(in[i])]++
			}
			var acc int64
			for k, c := range counts {
				counts[k] = acc
				acc += c
			}
			for i := 0; i < n; i++ {
				k := key(in[i])
				out[counts[k]] = in[i]
				counts[k]++
			}
		})
	}

	// counts[b*buckets + k] = occurrences of key k in block b.
	if err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		row := counts[b*buckets : (b+1)*buckets]
		for i := lo; i < hi; i++ {
			row[key(in[i])]++
		}
	}); err != nil {
		return err
	}
	// Column-major scan: for each key, blocks in order — gives stability.
	var acc int64
	for k := 0; k < buckets; k++ {
		for b := 0; b < blocks; b++ {
			c := counts[b*buckets+k]
			counts[b*buckets+k] = acc
			acc += c
		}
	}
	return ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		row := counts[b*buckets : (b+1)*buckets]
		for i := lo; i < hi; i++ {
			k := key(in[i])
			out[row[k]] = in[i]
			row[k]++
		}
	})
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
	// One digit-count matrix serves every pass.
	counts := make([]int64, numBlocks(ctx, n)<<radixBits)
	src, dst := in, buf
	swapped := false
	for shift := 0; int64(1)<<shift < keyBound; shift += radixBits {
		s := shift
		if err := countingSortByKey(ctx, src, dst, 1<<radixBits, counts, func(v T) int {
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
