package delta_test

import (
	"math"
	"slices"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/viewtest"
)

// iteratorsOnly hides a view's rows: graph.Rows serves it through the
// adapter.
type iteratorsOnly struct{ graph.View }

// TestRowsMatchIterators holds every implementer of the row contract to
// the view's own iterators: every view of viewtest.Matrix, algo's
// transpose over each, and the adapter over each, on
// weighted and unweighted, directed and symmetric graphs. OutRow is the
// iterator's row, order and weights; InRow(v, buf, k) is its first k
// edges; and reusing one buf never alters a row returned in place earlier.
func TestRowsMatchIterators(t *testing.T) {
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
		for vname, v := range viewtest.Matrix(t, g, viewtest.NetZero(g)...) {
			for wname, w := range map[string]graph.View{
				"":           v,
				"/transpose": algo.TransposeView(v),
				"/adapter":   iteratorsOnly{v},
			} {
				checkRows(t, gname+"/"+vname+wname, w)
			}
		}
	}
}

func checkRows(t *testing.T, name string, v graph.View) {
	t.Helper()
	rows := graph.Rows(v)
	var buf graph.Row
	// Rows returned in place, with a copy taken when they were returned.
	type kept struct {
		ts, tsCopy []uint32
		ws, wsCopy []int32
	}
	var inPlace []kept
	// check compares one row with the iterator's; k < 0 stands for OutRow.
	check := func(k int, u uint32, ts []uint32, ws []int32, wantT []uint32, wantW []int32) {
		t.Helper()
		if !slices.Equal(ts, wantT) || !slices.Equal(ws, wantW) || (!v.Weighted() && ws != nil) {
			t.Fatalf("%s: row %d (k=%d; -1 is OutRow) = %v %v, iterator says %v %v", name, u, k, ts, ws, wantT, wantW)
		}
		if len(ts) > 0 && (len(buf.Targets) == 0 || &ts[0] != &buf.Targets[0]) {
			inPlace = append(inPlace, kept{ts, slices.Clone(ts), ws, slices.Clone(ws)})
		}
	}
	iterate := func(each func(uint32, func(uint32, int32) bool), u uint32) ([]uint32, []int32) {
		var ts []uint32
		var ws []int32
		each(u, func(d uint32, w int32) bool {
			ts = append(ts, d)
			if v.Weighted() {
				ws = append(ws, w)
			}
			return true
		})
		return ts, ws
	}
	for u := uint32(0); int(u) < v.NumVertices(); u++ {
		wantT, wantW := iterate(v.OutNeighbors, u)
		ts, ws := rows.OutRow(u, &buf)
		check(-1, u, ts, ws, wantT, wantW)
		wantT, wantW = iterate(v.InNeighbors, u)
		for _, k := range []int{0, 1, 4, len(wantT), math.MaxInt} {
			ts, ws := rows.InRow(u, &buf, k)
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
