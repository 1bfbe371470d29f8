package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ligra/internal/graph"
)

// TestGeneratorsAreStable pins every generator's output byte for byte:
// the SHA-256 of the out-arrays (offsets, targets and, after
// AddWeights(HashWeight(100)), weights) and, for a directed graph, of the
// in-arrays too. The benchmark's graphs and every test's graphs are these
// generators' output, so a change to the builder or the generators that
// moves a single edge shows here, not as a drifting metric.
func TestGeneratorsAreStable(t *testing.T) {
	family := func(name string) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) { return Family(name, 10, 42) }
	}
	for _, tc := range []struct {
		name  string
		build func() (*graph.Graph, error)
		want  string
	}{
		{"rmat-10", func() (*graph.Graph, error) { return RMAT(10, 16, PBBSRMAT, 42) }, "fea2c3ff232bb527cf39760c60f79b88b716cb059a75166764eaf50e7a8e6f61"},
		{"rmat-12", func() (*graph.Graph, error) { return RMAT(12, 16, PBBSRMAT, 42) }, "f4e84178389b2fc5cc41c54212d0676238ed086f298599a3b9fa87248a3ab239"},
		{"rmat-directed-10", func() (*graph.Graph, error) { return RMATDirected(10, 16, PBBSRMAT, 42) }, "f986acc2d8a327c8df2b45ed339090ddfb0d207feab716e33beaee97dc6387d0"},
		{"grid3d-10", func() (*graph.Graph, error) { return Grid3D(10) }, "2bf53cbc331a1e8889ab0cd2927a3cd696600804bf22c729e4e22eee88e286fe"},
		{"randlocal-1000", func() (*graph.Graph, error) { return RandomLocal(1000, 10, 64, 7) }, "7e1e298b24a0de9d604e9827d82972837d1759edec83994fb0cadd8f7baf3d23"},
		{"erdos-renyi-1000", func() (*graph.Graph, error) { return ErdosRenyi(1000, 5000, 7) }, "74ddb7f873fb44fac8a02497f514135aea00ef4b379f658897da7a80f345cde6"},
		{"watts-strogatz-1000", func() (*graph.Graph, error) { return WattsStrogatz(1000, 4, 0.1, 7) }, "60f789781145c2456419c523b0d597b03b9969419f617289dbf53c841a670b63"},
		{"family-rmat", family("rmat"), "fea2c3ff232bb527cf39760c60f79b88b716cb059a75166764eaf50e7a8e6f61"},
		{"family-twitter-sim", family("twitter-sim"), "e09ec7166a8c7c87aac203fc633b01fc8a54f1423991d431dd3261f98d57b4a4"},
		{"family-grid3d", family("grid3d"), "255e9f1b79d065d64ecaed69149d31d7b057dbdc1ead18f68a48a821d5bbe51b"},
		{"family-randlocal", family("randlocal"), "dbb5cb10c363544463c647d867828a876c4155f743c27f49602d78ad8f8b3dfd"},
	} {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := graphDigest(g); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// graphDigest hashes g's CSR arrays, weighted by HashWeight(100), in a
// fixed order with little-endian fixed-width elements.
func graphDigest(g *graph.Graph) string {
	w := g.AddWeights(graph.HashWeight(100))
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put(int64(w.NumVertices()))
	put(w.NumEdges())
	put(w.Symmetric())
	put(w.Offsets())
	put(w.Edges())
	put(w.Weights())
	if !w.Symmetric() {
		put(w.InOffsets())
		put(w.InEdges())
		put(w.InWeights())
	}
	return hex.EncodeToString(h.Sum(nil))
}
