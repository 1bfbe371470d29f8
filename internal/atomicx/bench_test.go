package atomicx

import (
	"math"
	"testing"
)

func BenchmarkWriteMinUncontended(b *testing.B) {
	xs := make([]int64, 1024)
	for i := range xs {
		xs[i] = math.MaxInt64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteMinInt64(&xs[i%1024], int64(i))
	}
}

func BenchmarkWriteMinContended(b *testing.B) {
	// All goroutines hammer one location — the contention scenario the
	// priority-update paper measures (it degrades gracefully because
	// losing writers do not retry once the location beats their value).
	var x int64 = math.MaxInt64
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1 << 30)
		for pb.Next() {
			WriteMinInt64(&x, v)
			v-- // keep a few winners trickling in
		}
	})
}

func BenchmarkFetchAddContended(b *testing.B) {
	var x int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			AddInt64(&x, 1)
		}
	})
}

func BenchmarkFloat64Add(b *testing.B) {
	fs := NewFloat64Slice(1024)
	for i := 0; i < b.N; i++ {
		fs.Add(i%1024, 1.0)
	}
}

func BenchmarkOrUint64(b *testing.B) {
	words := make([]uint64, 1024)
	for i := 0; i < b.N; i++ {
		OrUint64(&words[i%1024], 1<<(uint(i)%64))
	}
}
