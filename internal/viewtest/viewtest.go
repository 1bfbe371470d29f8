// Package viewtest is test support: it puts one CSR graph behind every
// graph.View representation the traversal drivers serve, so differential
// tests in core, algo and spmv share one view matrix.
package viewtest

import (
	"context"
	"path/filepath"
	"testing"

	"ligra/internal/compress"
	"ligra/internal/delta"
	"ligra/internal/graph"
)

// Matrix returns g as "heap" (raw CSR), "compressed" (decoded blocks),
// "mmap" (the same blocks from a mapped file, closed at test cleanup) and
// "snapshot": a delta-store snapshot of g after the batches, applied in
// order. Only the snapshot sees the batches; a caller whose views must
// share an oracle passes batches that net out to g.
func Matrix(t testing.TB, g *graph.Graph, batches ...[]delta.EdgeOp) map[string]graph.View {
	t.Helper()
	views := map[string]graph.View{"heap": g}
	c, err := compress.Compress(g)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	views["compressed"] = c
	path := filepath.Join(t.TempDir(), "g.ligragc")
	if err := compress.WriteCompressedFile(path, c); err != nil {
		t.Fatalf("write compressed: %v", err)
	}
	mapped, err := compress.OpenMapped(path)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = mapped.Close() }) // read-only mapping
	views["mmap"] = mapped

	store := delta.NewStore(g, delta.Config{})
	t.Cleanup(store.Release)
	for _, ops := range batches {
		if _, err := store.Update(context.Background(), ops); err != nil {
			t.Fatalf("delta update: %v", err)
		}
	}
	pin, err := store.Acquire()
	if err != nil {
		t.Fatalf("delta acquire: %v", err)
	}
	t.Cleanup(pin.Release)
	views["snapshot"] = pin.View()
	return views
}
