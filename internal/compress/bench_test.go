package compress

import (
	"context"
	"testing"

	"ligra/internal/delta"
	"ligra/internal/gen"
)

func BenchmarkCompress(b *testing.B) {
	g, err := gen.RMAT(14, 16, gen.PBBSRMAT, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(g.NumEdges()), "edges")
	for i := 0; i < b.N; i++ {
		if _, err := Compress(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTraversal(b *testing.B) {
	g, err := gen.RMAT(14, 16, gen.PBBSRMAT, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compress(g)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	b.Run("csr", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := uint32(0); int(v) < n; v++ {
				g.OutNeighbors(v, func(d uint32, _ int32) bool {
					sum += int64(d)
					return true
				})
			}
		}
		_ = sum
	})
	b.Run("compressed", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := uint32(0); int(v) < n; v++ {
				c.OutNeighbors(v, func(d uint32, _ int32) bool {
					sum += int64(d)
					return true
				})
			}
		}
		_ = sum
	})
}

func BenchmarkDecompress(b *testing.B) {
	g, err := gen.RMAT(13, 16, gen.PBBSRMAT, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compress(g)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := delta.Materialize(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}
