package delta

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/compress"
	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
)

// incBackends builds the same symmetric graph behind each View backend
// the property tests must cover: heap CSR, compressed, and mmap.
func incBackends(t *testing.T, g *graph.Graph) map[string]graph.View {
	t.Helper()
	views := map[string]graph.View{"heap": g}
	c, err := compress.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	views["compressed"] = c
	path := filepath.Join(t.TempDir(), "g.gc")
	if err := compress.WriteCompressedFile(path, c); err != nil {
		t.Fatal(err)
	}
	mm, err := compress.LoadView(path, true, true)
	if err != nil {
		t.Fatal(err)
	}
	views["mmap"] = mm
	return views
}

func incGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, err := gen.RMAT(9, 8, gen.PBBSRMAT, 33)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid3D(9)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"rmat": rmat, "grid": grid}
}

// TestIncrementalCCMatchesFull is the headline property test: whichever
// path RefreshCC takes, its labels are bit-identical to a full recompute
// on the same snapshot — and it takes the path the cost gate says it
// should. Three cases, in order, on one store per (graph, backend):
// insert-only batches (one of which grows the graph by a small island)
// stay incremental; a delete inside that island, in a batch that also
// bridges one of its fragments to the rest, stays incremental; a delete
// inside the giant component falls back to the full run.
func TestIncrementalCCMatchesFull(t *testing.T) {
	ctx := context.Background()
	for gname, g := range incGraphs(t) {
		for bname, base := range incBackends(t, g) {
			t.Run(gname+"/"+bname, func(t *testing.T) {
				st := NewStore(base, Config{InitialVersion: 1, Policy: Policy{CompactEvery: -1, HistoryDepth: 16}})
				defer st.Release()
				// refresh runs RefreshCC on the current snapshot, checks it
				// against a full run, and reports the path and the result.
				refresh := func(t *testing.T) (*algo.CCResult, bool) {
					t.Helper()
					pin, err := st.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					defer pin.Release()
					before := st.Stats()
					res, incremental, err := st.RefreshCC(ctx, pin, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					after := st.Stats()
					wantInc, wantFull := before.IncrementalRuns, before.FullRuns+1
					if incremental {
						wantInc, wantFull = before.IncrementalRuns+1, before.FullRuns
					}
					if after.IncrementalRuns != wantInc || after.FullRuns != wantFull {
						t.Fatalf("incremental=%v but counters went (%d, %d) -> (%d, %d)", incremental,
							before.IncrementalRuns, before.FullRuns, after.IncrementalRuns, after.FullRuns)
					}
					full, err := algo.ConnectedComponentsCtx(ctx, pin.View(), core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if res.Components != full.Components {
						t.Fatalf("refreshed %d components, full %d", res.Components, full.Components)
					}
					for i := range full.Labels {
						if res.Labels[i] != full.Labels[i] {
							t.Fatalf("label[%d] = %d refreshed, %d full", i, res.Labels[i], full.Labels[i])
						}
					}
					return res, incremental
				}
				update := func(t *testing.T, ops []EdgeOp) {
					t.Helper()
					if _, err := st.Update(ctx, ops); err != nil {
						t.Fatal(err)
					}
				}
				if _, incremental := refresh(t); incremental {
					t.Fatal("first refresh claimed to be incremental")
				}

				n := uint32(g.NumVertices())
				rng := rand.New(rand.NewSource(int64(len(gname) + len(bname))))
				// The island: a 6-cycle on new vertices n..n+5.
				var island []EdgeOp
				for i := uint32(0); i < 6; i++ {
					island = append(island, EdgeOp{Src: n + i, Dst: n + (i+1)%6})
				}

				t.Run("insert-only", func(t *testing.T) {
					for round := 0; round < 3; round++ {
						var ops []EdgeOp
						for len(ops) < 60 {
							if s, d := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n))); s != d {
								ops = append(ops, EdgeOp{Src: s, Dst: d})
							}
						}
						if round == 1 {
							ops = append(ops, island...)
						}
						update(t, ops)
						if _, incremental := refresh(t); !incremental {
							t.Fatalf("round %d: insert-only batch was not refreshed incrementally", round)
						}
					}
				})

				t.Run("delete-small-component", func(t *testing.T) {
					before, _ := refresh(t) // memoized: same version
					// Cut the cycle twice, {n, n+1, n+2} | {n+3, n+4, n+5}, and
					// bridge the second half to vertex 0's component.
					update(t, []EdgeOp{
						{Src: n + 2, Dst: n + 3, Del: true},
						{Src: n + 5, Dst: n, Del: true},
						{Src: 0, Dst: n + 4},
					})
					after, incremental := refresh(t)
					if !incremental {
						t.Fatal("a delete inside a 6-vertex component fell back to the full run")
					}
					if after.Components != before.Components {
						t.Fatalf("components %d -> %d, want unchanged (island split in two, one half absorbed)",
							before.Components, after.Components)
					}
					if after.Labels[n+1] != n || after.Labels[n+4] != after.Labels[0] {
						t.Fatalf("island labels %v, label[0] = %d", after.Labels[n:], after.Labels[0])
					}
				})

				t.Run("delete-giant-component", func(t *testing.T) {
					// An edge of the base graph whose component is most of it.
					cur, _ := refresh(t)
					var del []EdgeOp
					for v := uint32(0); v < n && del == nil; v++ {
						size := 0
						for _, l := range cur.Labels {
							if l == cur.Labels[v] {
								size++
							}
						}
						if size > int(n)/2 {
							g.OutNeighbors(v, func(d uint32, _ int32) bool {
								del = []EdgeOp{{Src: v, Dst: d, Del: true}}
								return false
							})
						}
					}
					if del == nil {
						t.Fatal("test graph has no giant component")
					}
					update(t, del)
					if _, incremental := refresh(t); incremental {
						t.Fatal("a delete inside the giant component was re-propagated instead of recomputed")
					}
				})
			})
		}
	}
}

// TestFilteringViewsHaveNoRows: a wrapper that drops edges must not leak
// its base's raw rows, or edgeMap would traverse the unfiltered graph.
// Embedding a graph.View promotes only View's methods, so this holds by
// construction; the test keeps it from being "fixed" by embedding a
// graph.RowView.
func TestFilteringViewsHaveNoRows(t *testing.T) {
	g, err := gen.Grid3D(4)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, _ := apply(g, []EdgeOp{{Src: 0, Dst: 9}})
	for name, base := range map[string]graph.View{"csr": g, "snapshot": snap} {
		if _, ok := base.(graph.RowView); !ok {
			t.Fatalf("%s: base view lost its rows", name)
		}
		var masked graph.View = maskedView{View: base, in: make([]bool, base.NumVertices())}
		if _, ok := masked.(graph.RowView); ok {
			t.Errorf("maskedView over %s satisfies graph.RowView", name)
		}
	}
}

// TestIncrementalPageRankMatchesFull: after each batch, the warm-started
// PageRank-Delta refresh must land within tolerance of a from-scratch
// PageRank-Delta run on the same snapshot.
func TestIncrementalPageRankMatchesFull(t *testing.T) {
	opts := algo.PageRankOptions{Epsilon: 1e-9, MaxIterations: 500}
	const prDelta = 1e-7 // frontier threshold: tight, so both runs converge hard
	for gname, g := range incGraphs(t) {
		for bname, base := range incBackends(t, g) {
			t.Run(gname+"/"+bname, func(t *testing.T) {
				st := NewStore(base, Config{InitialVersion: 1, Policy: Policy{CompactEvery: -1, HistoryDepth: 16}})
				defer st.Release()
				pin, err := st.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				_, incremental, err := st.RefreshPageRankDelta(context.Background(), pin, opts, prDelta)
				pin.Release()
				if err != nil {
					t.Fatal(err)
				}
				if incremental {
					t.Fatal("first refresh claimed to be incremental")
				}

				rng := rand.New(rand.NewSource(99))
				sawIncremental := false
				for round := 0; round < 4; round++ {
					cur, _ := st.Current()
					ops := randomOps(rng, cur, 80)
					if _, err := st.Update(context.Background(), ops); err != nil {
						t.Fatal(err)
					}
					pin, err := st.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					inc, incremental, err := st.RefreshPageRankDelta(context.Background(), pin, opts, prDelta)
					if err != nil {
						pin.Release()
						t.Fatal(err)
					}
					if incremental {
						sawIncremental = true
					}
					full, err := algo.PageRankDeltaCtx(context.Background(), pin.View(), opts, prDelta)
					pin.Release()
					if err != nil {
						t.Fatal(err)
					}
					var maxDiff, l1 float64
					for i := range full.Ranks {
						d := math.Abs(inc.Ranks[i] - full.Ranks[i])
						l1 += d
						if d > maxDiff {
							maxDiff = d
						}
					}
					if maxDiff > 1e-4 || l1 > 1e-3 {
						t.Fatalf("round %d: incremental diverged from full: max %.3g, L1 %.3g", round, maxDiff, l1)
					}
				}
				if !sawIncremental {
					t.Fatal("incremental PageRank path never taken")
				}
			})
		}
	}
}

// TestIncrementalCCDirectFallsBack: IncrementalCC on vertex growth must
// still be exact (growth is supported: new vertices start as singleton
// labels).
func TestIncrementalCCGrowth(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.PBBSRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := algo.ConnectedComponentsCtx(context.Background(), g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n0 := g.NumVertices()
	ops := []EdgeOp{
		{Src: 0, Dst: uint32(n0 + 2)},          // attach a new vertex to component of 0
		{Src: uint32(n0), Dst: uint32(n0 + 1)}, // an island pair of new vertices
	}
	next, eff, _ := apply(g, ops)
	inc, err := IncrementalCC(context.Background(), next, prev.Labels, eff, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := algo.ConnectedComponentsCtx(context.Background(), next, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Components != full.Components {
		t.Fatalf("components: incremental %d, full %d", inc.Components, full.Components)
	}
	for i := range full.Labels {
		if inc.Labels[i] != full.Labels[i] {
			t.Fatalf("label[%d]: incremental %d, full %d", i, inc.Labels[i], full.Labels[i])
		}
	}
}

// TestNetOps collapses replayed multi-batch sequences by parity.
func TestNetOps(t *testing.T) {
	ops := []EdgeOp{
		{Src: 1, Dst: 2}, // ins then del -> nothing
		{Src: 1, Dst: 2, Del: true},
		{Src: 3, Dst: 4, Del: true}, // del then ins -> nothing
		{Src: 3, Dst: 4},
		{Src: 5, Dst: 6},            // lone insert
		{Src: 7, Dst: 8, Del: true}, // lone delete
		{Src: 9, Dst: 1},            // ins, del, ins -> insert
		{Src: 9, Dst: 1, Del: true},
		{Src: 9, Dst: 1},
	}
	ins, del := netOps(ops)
	if len(ins) != 2 || len(del) != 1 {
		t.Fatalf("netOps: %d inserts, %d deletes; want 2, 1", len(ins), len(del))
	}
	wantIns := map[edgeKey]bool{{5, 6}: true, {9, 1}: true}
	for _, op := range ins {
		if !wantIns[edgeKey{op.Src, op.Dst}] || op.Del {
			t.Fatalf("unexpected net insert %+v", op)
		}
	}
	if del[0].Src != 7 || del[0].Dst != 8 || !del[0].Del {
		t.Fatalf("unexpected net delete %+v", del[0])
	}
}

// TestRefreshCCMemoized: same version, second call is served from the
// tracker without recomputation (incremental=false, zero extra runs).
func TestRefreshCCMemoized(t *testing.T) {
	g, err := gen.Grid3D(6)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(g, Config{InitialVersion: 1})
	pin, err := st.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	a, _, err := st.RefreshCC(context.Background(), pin, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := st.Stats().FullRuns
	b, _, err := st.RefreshCC(context.Background(), pin, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().FullRuns != full {
		t.Fatal("memoized refresh recomputed")
	}
	if a.Components != b.Components {
		t.Fatal("memoized result mismatch")
	}
}

// TestRefreshFallsBackWhenHistoryLost: with HistoryDepth disabled the
// replay chain is never available, so refresh always runs full — and
// still matches.
func TestRefreshFallsBackWhenHistoryLost(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.PBBSRMAT, 21)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(g, Config{InitialVersion: 1, Policy: Policy{HistoryDepth: -1, CompactEvery: -1}})
	pin, _ := st.Acquire()
	if _, _, err := st.RefreshCC(context.Background(), pin, core.Options{}); err != nil {
		t.Fatal(err)
	}
	pin.Release()
	// Insert a guaranteed-new edge so the batch is effective and the
	// version moves.
	adj := map[uint32]bool{0: true}
	g.OutNeighbors(0, func(d uint32, _ int32) bool { adj[d] = true; return true })
	ins := EdgeOp{Src: 0}
	for d := uint32(0); int(d) < g.NumVertices(); d++ {
		if !adj[d] {
			ins.Dst = d
			break
		}
	}
	applied, err := st.Update(context.Background(), []EdgeOp{ins})
	if err != nil {
		t.Fatal(err)
	}
	if applied.Version == applied.PrevVersion {
		t.Fatalf("batch was a no-op: %+v", applied)
	}
	pin, _ = st.Acquire()
	defer pin.Release()
	res, incremental, err := st.RefreshCC(context.Background(), pin, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if incremental {
		t.Fatal("claimed incremental with no history")
	}
	full, err := algo.ConnectedComponentsCtx(context.Background(), pin.View(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != full.Components {
		t.Fatalf("fallback mismatch: %d vs %d", res.Components, full.Components)
	}
	if st.Stats().FullRuns < 2 {
		t.Fatalf("FullRuns = %d, want >= 2", st.Stats().FullRuns)
	}
}
