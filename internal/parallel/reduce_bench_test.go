package parallel_test

import (
	"context"
	"testing"

	"ligra/internal/gen"
	"ligra/internal/parallel"
)

// BenchmarkMaxIndexFunc times the max-degree-vertex reduction over the
// out-degrees of a scale-16 rMat (65 536 vertices), the loop describe and
// ligra-run use to pick a default source:
//
//	go test -run '^$' -bench MaxIndexFunc -cpu 1,2 ./internal/parallel
func BenchmarkMaxIndexFunc(b *testing.B) {
	g, err := gen.RMAT(16, 8, gen.PBBSRMAT, 1)
	if err != nil {
		b.Fatal(err)
	}
	offs := g.Offsets()
	ctx := context.Background()
	b.ResetTimer()
	for range b.N {
		if _, err := parallel.MaxIndexFunc(ctx, g.NumVertices(), func(i int) int64 { return offs[i+1] - offs[i] }); err != nil {
			b.Fatal(err)
		}
	}
}
