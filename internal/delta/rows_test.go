package delta_test

import (
	"slices"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/viewtest"
)

// csrRows reads a row straight off the heap CSR's raw arrays.
type csrRows struct {
	offsets []int64
	edges   []uint32
	weights []int32
}

func (c csrRows) row(u uint32) ([]uint32, []int32) {
	lo, hi := c.offsets[u], c.offsets[u+1]
	if c.weights == nil {
		return c.edges[lo:hi], nil
	}
	return c.edges[lo:hi], c.weights[lo:hi]
}

// TestRowsMatchCSR holds every implementer of the row contract to the
// heap CSR's raw arrays: every view of viewtest.Matrix and algo's
// transpose over each, on weighted and unweighted, directed and symmetric
// graphs. OutRow is the CSR row, order and weights; InRow(v, buf, k) is
// the first k edges of the transpose row; an unweighted view returns nil
// weights; reusing one buf never alters a row returned in place earlier;
// and the per-edge OutNeighbors shim, which the benchmark's edge oracle
// reads, walks OutRow's edges with weight 1 when unweighted.
func TestRowsMatchCSR(t *testing.T) {
	sym, err := gen.RMAT(7, 6, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := gen.RMATDirected(7, 6, gen.PBBSRMAT, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"symmetric": sym, "directed": dir,
		"symmetric-weighted": sym.AddWeights(graph.HashWeight(100)),
		"directed-weighted":  dir.AddWeights(graph.HashWeight(100)),
	}
	for gname, g := range graphs {
		out := csrRows{g.Offsets(), g.Edges(), g.Weights()}
		in := csrRows{g.InOffsets(), g.InEdges(), g.InWeights()}
		for vname, v := range viewtest.Matrix(t, g, viewtest.NetZero(g)...) {
			checkRows(t, gname+"/"+vname, v, out, in)
			checkRows(t, gname+"/"+vname+"/transpose", algo.TransposeView(v), in, out)
		}
	}
}

func checkRows(t *testing.T, name string, v graph.View, out, in csrRows) {
	t.Helper()
	var buf graph.Row
	// Rows returned in place, with a copy taken when they were returned.
	type kept struct {
		ts, tsCopy []uint32
		ws, wsCopy []int32
	}
	var inPlace []kept
	// check compares one row with the CSR's; k < 0 stands for OutRow.
	check := func(k int, u uint32, ts []uint32, ws []int32, wantT []uint32, wantW []int32) {
		t.Helper()
		if !slices.Equal(ts, wantT) || !slices.Equal(ws, wantW) || (!v.Weighted() && ws != nil) {
			t.Fatalf("%s: row %d (k=%d; -1 is OutRow) = %v %v, CSR says %v %v", name, u, k, ts, ws, wantT, wantW)
		}
		if len(ts) > 0 && (len(buf.Targets) == 0 || &ts[0] != &buf.Targets[0]) {
			inPlace = append(inPlace, kept{ts, slices.Clone(ts), ws, slices.Clone(ws)})
		}
	}
	for u := uint32(0); int(u) < v.NumVertices(); u++ {
		wantT, wantW := out.row(u)
		ts, ws := v.OutRow(u, &buf)
		check(-1, u, ts, ws, wantT, wantW)

		var shimT []uint32
		var shimW []int32
		v.OutNeighbors(u, func(d uint32, w int32) bool {
			shimT, shimW = append(shimT, d), append(shimW, w)
			return true
		})
		if !slices.Equal(shimT, wantT) {
			t.Fatalf("%s: OutNeighbors(%d) = %v, CSR says %v", name, u, shimT, wantT)
		}
		for i, w := range shimW {
			if w != graph.WeightAt(wantW, i) {
				t.Fatalf("%s: OutNeighbors(%d) weights %v, CSR says %v", name, u, shimW, wantW)
			}
		}

		wantT, wantW = in.row(u)
		for _, k := range []int{0, 1, 4, len(wantT), len(wantT) + 1} {
			ts, ws := v.InRow(u, &buf, k)
			prefixT, prefixW := graph.Prefix(wantT, wantW, k)
			check(k, u, ts, ws, prefixT, prefixW)
		}
	}
	for _, r := range inPlace {
		if !slices.Equal(r.ts, r.tsCopy) || !slices.Equal(r.ws, r.wsCopy) {
			t.Fatalf("%s: an in-place row changed from %v %v to %v %v while buf was reused", name, r.tsCopy, r.wsCopy, r.ts, r.ws)
		}
	}
}
