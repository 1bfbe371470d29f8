package gen

import (
	"runtime"
	"testing"
)

// BenchmarkRMAT builds the scale-16 rMat graph that ligra-serve hosts for
// {"gen":"rmat"}: drawing the edges, then graph.FromEdges. It reports the
// time and the bytes allocated per drawn edge.
func BenchmarkRMAT(b *testing.B) {
	const scale, edgeFactor = 16, 16
	drawn := float64(b.N) * (1 << scale) * edgeFactor
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(scale, edgeFactor, PBBSRMAT, 42); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/drawn, "ns/edge")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/drawn, "B/edge")
}
