package compress_test

import (
	"context"
	"maps"
	"math"
	"reflect"
	"strings"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/compress"
	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/viewtest"
)

func mustRMAT(t *testing.T, scale int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(scale, 8, gen.PBBSRMAT, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// parityParams fills the registry parameters each runner needs, with
// fixed seeds so the randomized algorithms are reproducible.
func parityParams(r algo.Runner, opts core.Options) algo.Params {
	p := algo.Params{Seed: 7, EdgeMap: opts}
	if r.NeedsSource {
		p.Source = 1
	}
	switch r.Name {
	case "reach":
		p.Target = 5
	case "landmarks":
		p.Landmarks = []uint32{0, 2, 9}
	case "bc-approx", "eccentricity":
		p.K = 4
	}
	return p
}

// nondetDetails lists, per algorithm, result fields that are
// schedule-dependent on ANY backend at procs > 1: label propagation and
// shortest-path relaxation make within-round updates visible to later
// updates of the same round, so rounds-to-convergence varies run to run
// while the converged answer does not. Parity compares the answer.
var nondetDetails = map[string][]string{
	"components":   {"rounds"},
	"bellman-ford": {"rounds"},
}

// closeDetails compares two RunResult.Details maps: floats with relative
// tolerance (parallel float accumulation across different dense sweeps),
// everything else exactly. Schedule-dependent fields are dropped first.
func closeDetails(t *testing.T, name string, want, got map[string]any) {
	t.Helper()
	algoName := name
	if i := strings.LastIndexByte(algoName, '/'); i >= 0 {
		algoName = algoName[i+1:]
	}
	for _, k := range nondetDetails[algoName] {
		delete(want, k)
		delete(got, k)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: detail keys differ: %v vs %v", name, want, got)
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing detail %q", name, k)
		}
		wf, wok := toFloat(wv)
		gf, gok := toFloat(gv)
		switch {
		case wok && gok:
			if diff := math.Abs(wf - gf); diff > 1e-6*math.Max(1, math.Max(math.Abs(wf), math.Abs(gf))) {
				t.Errorf("%s: detail %q: %v vs %v", name, k, wv, gv)
			}
		default:
			if !reflect.DeepEqual(wv, gv) {
				t.Errorf("%s: detail %q: %#v vs %#v", name, k, wv, gv)
			}
		}
	}
}

func toFloat(v any) (float64, bool) {
	switch f := v.(type) {
	case float64:
		return f, true
	case float32:
		return float64(f), true
	}
	return 0, false
}

// TestFullRegistryParity runs every registered algorithm on a CSR graph
// and on every other representation of it in the viewtest matrix —
// compressed, mmap, and delta snapshots shallow, deep, compacted and over
// the compressed base — and requires identical results: every backend is
// a drop-in View, not an approximation. Any divergence is a decode bug or
// a row the overlay serves wrong.
func TestFullRegistryParity(t *testing.T) {
	g := mustRMAT(t, 9, 11)
	plain := viewtest.Matrix(t, g, viewtest.NetZero(g)...)
	w := g.AddWeights(graph.HashWeight(100))
	weighted := viewtest.Matrix(t, w, viewtest.NetZero(w)...)
	ctx := context.Background()
	for _, r := range algo.Runners() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			views := plain
			if r.NeedsWeights {
				views = weighted
			}
			p := parityParams(r, core.Options{})
			want, err := r.Run(ctx, views["heap"], p)
			if err != nil {
				t.Fatalf("csr: %v", err)
			}
			for vname, v := range views {
				got, err := r.Run(ctx, v, p)
				if err != nil {
					t.Fatalf("%s: %v", vname, err)
				}
				// Summaries render the Details (including any
				// schedule-dependent round counts), so only compare them
				// verbatim for fully deterministic algorithms.
				if _, nondet := nondetDetails[r.Name]; !nondet && want.Summary != got.Summary {
					t.Errorf("summary differs:\n  csr: %s\n  %s: %s", want.Summary, vname, got.Summary)
				}
				closeDetails(t, vname+"/"+r.Name, maps.Clone(want.Details), got.Details)
			}
		})
	}
}

// statsDelta runs f and returns the traversal counters it produced.
func statsDelta(f func()) core.StatsSnapshot {
	before := core.SnapshotStats()
	f()
	return core.SnapshotStats().Sub(before)
}

// assertStatsEqual compares the deterministic traversal counters.
// EdgesScanned is deliberately excluded: its degree sums short-circuit
// once the sparse/dense decision settles, so the recorded value depends
// on scheduling, not on the backend.
func assertStatsEqual(t *testing.T, name string, want, got core.StatsSnapshot) {
	t.Helper()
	want.EdgesScanned, got.EdgesScanned = 0, 0
	if want != got {
		t.Errorf("%s: traversal stats differ:\n  csr:        %+v\n  compressed: %+v", name, want, got)
	}
}

// TestTraversalStatsParity checks that the compressed backend drives the
// same sparse/dense decisions and frontier sizes as CSR — the direction
// heuristic sees identical degrees, so the whole traversal shape must
// match, on both a power-law and a mesh graph.
func TestTraversalStatsParity(t *testing.T) {
	graphs := map[string]*graph.Graph{"rmat": mustRMAT(t, 10, 3)}
	grid, err := gen.Grid3D(8)
	if err != nil {
		t.Fatal(err)
	}
	graphs["grid"] = grid
	apps := []string{"bfs", "components", "pagerank"}
	byName := map[string]algo.Runner{}
	for _, r := range algo.Runners() {
		byName[r.Name] = r
	}
	ctx := context.Background()
	for gname, g := range graphs {
		c, err := compress.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			r := byName[app]
			p := parityParams(r, core.Options{})
			var wantRes, gotRes algo.RunResult
			wantStats := statsDelta(func() {
				var err error
				if wantRes, err = r.Run(ctx, g, p); err != nil {
					t.Fatal(err)
				}
			})
			gotStats := statsDelta(func() {
				var err error
				if gotRes, err = r.Run(ctx, c, p); err != nil {
					t.Fatal(err)
				}
			})
			name := gname + "/" + app
			closeDetails(t, name, wantRes.Details, gotRes.Details)
			// Components' traversal trajectory (round count, frontier
			// contents) is schedule-dependent at procs > 1 on any backend
			// — see nondetDetails — so only its converged result is
			// compared; BFS and PageRank frontiers are deterministic.
			if app != "components" {
				assertStatsEqual(t, name, wantStats, gotStats)
			}
		}
	}
}

// iteratorsOnly hides everything about a view except the graph.View
// methods, so core's drivers read its rows through graph.Rows' adapter
// over the per-vertex decode callback.
type iteratorsOnly struct{ graph.View }

// TestNativeRowsMatchAdapter forces dense rounds and checks the compressed
// graph's own row decoder and the graph.Rows adapter over its iterators
// produce identical results.
func TestNativeRowsMatchAdapter(t *testing.T) {
	g := mustRMAT(t, 10, 5)
	c, err := compress.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]algo.Runner{}
	for _, r := range algo.Runners() {
		byName[r.Name] = r
	}
	ctx := context.Background()
	for _, app := range []string{"bfs", "components", "pagerank"} {
		r := byName[app]
		p := parityParams(r, core.Options{})
		p.Mode = "dense"
		native, err := r.Run(ctx, c, p)
		if err != nil {
			t.Fatal(err)
		}
		adapted, err := r.Run(ctx, iteratorsOnly{c}, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, nondet := nondetDetails[app]; !nondet && native.Summary != adapted.Summary {
			t.Errorf("%s: summary differs:\n  native: %s\n  adapter: %s", app, native.Summary, adapted.Summary)
		}
		closeDetails(t, app, native.Details, adapted.Details)
	}
}
