package parallel

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func BenchmarkForGrain(b *testing.B) {
	const n = 1 << 20
	sink := make([]int64, n)
	for _, grain := range []int{64, 1024, 4096} {
		b.Run(benchName("grain", grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok(ForRangeGrain(bg, n, grain, func(lo, hi int) {
					for j := lo; j < hi; j++ {
						sink[j]++
					}
				}))
			}
		})
	}
}

// BenchmarkSmallLoop pins what a deadline costs a loop at or under the
// sequential cutoff — every vertex phase over a small frontier: run as one
// chunk, the 200-iteration loop under a cancellable ctx should stay within
// 1.5x of the same loop under context.Background().
func BenchmarkSmallLoop(b *testing.B) {
	sink := make([]int64, 200)
	deadline, cancel := context.WithTimeout(bg, time.Hour)
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"background", bg}, {"cancellable", deadline}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok(For(tc.ctx, len(sink), func(j int) { sink[j]++ }))
			}
		})
	}
}

func benchName(prefix string, v int) string {
	switch {
	case v >= 1<<20:
		return prefix + "=1M"
	default:
		return prefix + "=" + itoa(v)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkScanExclusive(b *testing.B) {
	const n = 1 << 20
	in := make([]int64, n)
	out := make([]int64, n)
	for i := range in {
		in[i] = int64(i % 7)
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(ScanExclusive(bg, in, out))
	}
}

func BenchmarkReduceSum(b *testing.B) {
	const n = 1 << 20
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(SumFunc(bg, n, func(i int) int64 { return xs[i] }))
	}
}

func BenchmarkFilter(b *testing.B) {
	const n = 1 << 20
	xs := make([]uint32, n)
	for i := range xs {
		xs[i] = uint32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(Filter(bg, xs, func(x uint32) bool { return x%3 == 0 }))
	}
}

func BenchmarkSortFunc(b *testing.B) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(1))
	proto := make([]uint64, n)
	for i := range proto {
		proto[i] = rng.Uint64()
	}
	work := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, proto)
		ok(SortFunc(bg, work, func(a, c uint64) bool { return a < c }))
	}
}

func BenchmarkRadixSortByKey(b *testing.B) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(1))
	proto := make([]uint64, n)
	for i := range proto {
		proto[i] = rng.Uint64() % (1 << 32)
	}
	work := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, proto)
		ok(RadixSortByKey(bg, work, nil, 1<<32, func(v uint64) int64 { return int64(v) }))
	}
}

func BenchmarkCountingSortByKey(b *testing.B) {
	const n = 1 << 18
	const bucketCount = 1 << 11
	rng := rand.New(rand.NewSource(1))
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(rng.Intn(bucketCount))
	}
	out := make([]uint32, n)
	counts := make([]int64, numBlocks(bg, n)*bucketCount)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok(countingSortByKey(bg, in, out, bucketCount, counts, func(v uint32) int { return int(v) }))
	}
}

func BenchmarkPackIndex(b *testing.B) {
	const n = 1 << 20
	for i := 0; i < b.N; i++ {
		must(PackIndex[uint32](bg, n, func(j int) bool { return j%8 == 0 }))
	}
}
