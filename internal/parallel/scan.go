package parallel

import "context"

// ScanExclusive computes the exclusive prefix sum of in into out
// (out[i] = in[0] + ... + in[i-1], out[0] = 0) and returns the total sum.
// in and out may alias. This is the classic two-pass blocked scan:
// per-block sums, a sequential scan over block sums, then per-block local
// scans offset by the block prefix.
func ScanExclusive[T Number](ctx context.Context, in, out []T) (T, error) {
	n := len(in)
	if len(out) != n {
		panic("parallel: ScanExclusive length mismatch")
	}
	var total T
	blocks := numBlocks(ctx, n)
	if blocks == 1 {
		err := sequential(ctx, func() {
			for i := 0; i < n; i++ {
				v := in[i]
				out[i] = total
				total += v
			}
		})
		return total, err
	}
	sums := make([]T, blocks)
	if err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		var acc T
		for i := lo; i < hi; i++ {
			acc += in[i]
		}
		sums[b] = acc
	}); err != nil {
		return total, err
	}
	for b := 0; b < blocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	err := ForWorkerChunks(ctx, blocks, 1, func(_, b, _, _ int) {
		lo, hi := blockBounds(n, blocks, b)
		acc := sums[b]
		for i := lo; i < hi; i++ {
			v := in[i]
			out[i] = acc
			acc += v
		}
	})
	return total, err
}

// ScanFunc computes the exclusive prefix sum of fn(i) for i in [0, n) into a
// freshly allocated slice and returns it together with the total. It is the
// form used to build edge offsets from vertex degrees.
func ScanFunc[T Number](ctx context.Context, n int, fn func(i int) T) ([]T, T, error) {
	tmp, err := mapNew(ctx, n, fn)
	if err != nil {
		return nil, 0, err
	}
	total, err := ScanExclusive(ctx, tmp, tmp)
	return tmp, total, err
}
