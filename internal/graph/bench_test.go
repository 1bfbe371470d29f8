package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

func randomEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			Src:    uint32(rng.Intn(n)),
			Dst:    uint32(rng.Intn(n)),
			Weight: int32(rng.Intn(100)),
		}
	}
	return edges
}

func BenchmarkFromEdges(b *testing.B) {
	const n = 1 << 16
	edges := randomEdges(n, 8*n, 1)
	for _, tc := range []struct {
		name string
		opts BuildOptions
	}{
		{"directed", BuildOptions{}},
		{"symmetrized-dedup", BuildOptions{Symmetrize: true, RemoveDuplicates: true, RemoveSelfLoops: true}},
		{"weighted", BuildOptions{Weighted: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(edges)), "edges")
			for i := 0; i < b.N; i++ {
				if _, err := FromEdges(n, edges, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTraversal(b *testing.B) {
	const n = 1 << 16
	g, err := FromEdges(n, randomEdges(n, 8*n, 2), BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("slice", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := uint32(0); int(v) < n; v++ {
				row, _ := g.OutRow(v, nil)
				for _, d := range row {
					sum += int64(d)
				}
			}
		}
		_ = sum
	})
}

func BenchmarkIO(b *testing.B) {
	const n = 1 << 14
	g, err := FromEdges(n, randomEdges(n, 8*n, 3), BuildOptions{Weighted: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("write-text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := WriteAdjacency(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	var text bytes.Buffer
	if err := WriteAdjacency(&text, g); err != nil {
		b.Fatal(err)
	}
	b.Run("read-text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReadAdjacency(bytes.NewReader(text.Bytes()), false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		b.Fatal(err)
	}
	b.Run("read-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReadBinary(bytes.NewReader(bin.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
