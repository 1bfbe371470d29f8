package parallel

// ScanExclusive computes the exclusive prefix sum of in into out
// (out[i] = in[0] + ... + in[i-1], out[0] = 0) and returns the total sum.
// in and out may alias. This is the classic two-pass blocked scan:
// per-block sums, a sequential scan over block sums, then per-block local
// scans offset by the block prefix.
func ScanExclusive[T Number](in, out []T) T {
	n := len(in)
	if len(out) != n {
		panic("parallel: ScanExclusive length mismatch")
	}
	if n == 0 {
		var zero T
		return zero
	}
	blocks := numBlocks(n)
	if blocks == 1 {
		var acc T
		for i := 0; i < n; i++ {
			v := in[i]
			out[i] = acc
			acc += v
		}
		return acc
	}
	sums := make([]T, blocks)
	forGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		var acc T
		for i := lo; i < hi; i++ {
			acc += in[i]
		}
		sums[b] = acc
	})
	var total T
	for b := 0; b < blocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	forGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		acc := sums[b]
		for i := lo; i < hi; i++ {
			v := in[i]
			out[i] = acc
			acc += v
		}
	})
	return total
}

// ScanFunc computes the exclusive prefix sum of fn(i) for i in [0, n) into a
// freshly allocated slice and returns it together with the total. It is the
// form used to build edge offsets from vertex degrees.
func ScanFunc[T Number](n int, fn func(i int) T) ([]T, T) {
	tmp := make([]T, n)
	For(n, func(i int) { tmp[i] = fn(i) })
	total := ScanExclusive(tmp, tmp)
	return tmp, total
}
