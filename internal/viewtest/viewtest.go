// Package viewtest is test support: it puts one CSR graph behind every
// graph.View representation the traversal drivers serve, so differential
// tests in core and algo share one view matrix.
package viewtest

import (
	"context"
	"path/filepath"
	"testing"

	"ligra/internal/compress"
	"ligra/internal/delta"
	"ligra/internal/graph"
)

// Matrix returns g behind every implementer of graph.View: "heap" (raw
// CSR rows, in place), "compressed" (rows decoded into the caller's
// scratch), "mmap" (the same decoder over a mapped file, closed at test
// cleanup) and four delta-store snapshots of g after the batches, applied
// in order:
//
//   - "snapshot": a shallow overlay over raw CSR;
//   - "snapshot-deep": the same after a first batch that deletes and
//     re-inserts one edge of every vertex, so at least half the rows are
//     served from the overlay's row table while the edge set is unchanged;
//   - "snapshot-compacted": the deep overlay materialized to flat CSR;
//   - "snapshot-compressed": an overlay over the compressed base, whose
//     dirty rows are in place and clean ones decoded.
//
// Only the snapshots see the batches; a caller whose views must share an
// oracle passes batches that net out to g (and, on a weighted symmetric
// graph, weights that agree in both directions, as graph.HashWeight's do:
// a re-insert writes one weight to both).
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

	views["snapshot"] = snapshot(t, g, delta.Policy{}, batches)

	var churn []delta.EdgeOp
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if ts, ws := g.OutRow(v, nil); len(ts) > 0 {
			churn = append(churn, delta.EdgeOp{Src: v, Dst: ts[0], Del: true}, delta.EdgeOp{Src: v, Dst: ts[0], Weight: graph.WeightAt(ws, 0)})
		}
	}
	noCompaction := delta.Policy{CompactEvery: -1}
	deep := snapshot(t, g, noCompaction, append([][]delta.EdgeOp{churn}, batches...))
	views["snapshot-deep"] = deep
	compacted, err := delta.Materialize(context.Background(), deep)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	views["snapshot-compacted"] = compacted
	views["snapshot-compressed"] = snapshot(t, c, noCompaction, batches)
	return views
}

// snapshot is the view a reader pins after the batches land on a store
// over base.
func snapshot(t testing.TB, base graph.View, policy delta.Policy, batches [][]delta.EdgeOp) graph.View {
	t.Helper()
	store := delta.NewStore(base, delta.Config{Policy: policy})
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
	return pin.View()
}

// NetZero returns two batches that delete a handful of g's edges and put
// them back with their weights: snapshots serve those rows from their
// overlays, and are still g.
func NetZero(g *graph.Graph) [][]delta.EdgeOp {
	var del, ins []delta.EdgeOp
	for v := uint32(0); int(v) < g.NumVertices() && len(del) < 12; v += 7 {
		if ts, ws := g.OutRow(v, nil); len(ts) > 0 {
			del = append(del, delta.EdgeOp{Src: v, Dst: ts[0], Del: true})
			ins = append(ins, delta.EdgeOp{Src: v, Dst: ts[0], Weight: graph.WeightAt(ws, 0)})
		}
	}
	return [][]delta.EdgeOp{del, ins}
}
