package compress

import (
	"context"
	"testing"

	"ligra/internal/delta"
	"ligra/internal/gen"
	"ligra/internal/graph"
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
	for _, view := range []struct {
		name string
		g    graph.View
	}{{"csr", g}, {"compressed", c}} {
		b.Run(view.name, func(b *testing.B) {
			var sum int64
			var buf graph.Row
			for i := 0; i < b.N; i++ {
				for v := uint32(0); int(v) < n; v++ {
					ts, _ := view.g.OutRow(v, &buf)
					for _, d := range ts {
						sum += int64(d)
					}
				}
			}
			_ = sum
		})
	}
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
