package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/graph"
)

// DeltaUpdates benchmarks the dynamic-graph subsystem: the throughput of
// applying batched edge updates through a delta.Store (overlay build +
// version publish, group-commit window off so the numbers are pure apply
// cost), and the payoff of incremental recomputation — connected
// components and PageRank-Delta refreshed from the delta log after a
// small update batch, versus recomputing from scratch on the same
// snapshot. The incremental refreshers are exact (the serving tests
// cross-validate them against full recomputes), so the speedup column is
// the whole value proposition of the delta log.
func DeltaUpdates(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	g, err := in.Build()
	if err != nil {
		return err
	}
	n := g.NumVertices()
	ctx := context.Background()

	fmt.Fprintf(cfg.Out, "Dynamic updates on %s (n=%d, m=%d; median of %d)\n",
		in.Name, n, g.NumEdges(), cfg.rounds())
	fmt.Fprintln(cfg.Out, "  apply = overlay build + snapshot publish per batch (window off, compaction off)")
	w := cfg.tab()
	fmt.Fprintln(w, "batch size\tapply s/batch\tops/s")
	// Deterministic pseudo-random endpoint stream (xorshift), identical
	// across runs so -against diffs compare like with like. Every third
	// op deletes the edge inserted two steps earlier, mixing membership
	// hits and misses the way a churn workload does.
	mkOps := func(count int, seed uint64) []delta.EdgeOp {
		ops := make([]delta.EdgeOp, 0, count)
		s := seed
		next := func() uint32 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return uint32(s % uint64(n))
		}
		for len(ops) < count {
			src, dst := next(), next()
			if src == dst {
				continue
			}
			ops = append(ops, delta.EdgeOp{Src: src, Dst: dst})
			if len(ops)%3 == 0 && len(ops) >= 2 {
				prev := ops[len(ops)-2]
				ops = append(ops, delta.EdgeOp{Src: prev.Src, Dst: prev.Dst, Del: true})
			}
		}
		return ops[:count]
	}
	const applyBatches = 8
	for _, size := range []int{1 << 8, 1 << 12, 1 << 16} {
		if cfg.budgetExhausted(w) {
			break
		}
		batches := make([][]delta.EdgeOp, applyBatches)
		for i := range batches {
			batches[i] = mkOps(size, uint64(i+1)*0x9E3779B97F4A7C15)
		}
		t := Measure(cfg.rounds(), func() {
			st := delta.NewStore(g, delta.Config{Policy: delta.Policy{CompactEvery: -1, HistoryDepth: -1}})
			defer st.Release()
			for _, ops := range batches {
				if _, err := st.Update(ctx, ops); err != nil {
					panic(fmt.Errorf("delta bench apply: %w", err))
				}
			}
		})
		perBatch := t.Median.Seconds() / applyBatches
		cfg.record(fmt.Sprintf("delta/apply/%d", size), perBatch)
		fmt.Fprintf(w, "%d\t%.6f\t%.0f\n", size, perBatch, float64(size)/perBatch)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// Incremental refresh vs full recompute. Each measured round applies
	// one fresh batch (untimed) and then times the incremental refresh,
	// which replays exactly that batch from the delta log; the full
	// column recomputes on the same snapshot the refresh produced.
	const refreshOps = 256
	fmt.Fprintf(cfg.Out, "Incremental refresh after a %d-op batch vs full recompute (seconds)\n", refreshOps)
	w = cfg.tab()
	fmt.Fprintln(w, "algo\tfull\tincremental\tspeedup")

	run := func(name string, refresh func(pin *delta.Pin) error, full func(pin *delta.Pin) error) error {
		st := delta.NewStore(g, delta.Config{Policy: delta.Policy{CompactEvery: -1, HistoryDepth: 64}})
		defer st.Release()
		// Seed the tracker: the first refresh is always a full run.
		pin, err := st.Acquire()
		if err != nil {
			return err
		}
		if err := refresh(pin); err != nil {
			pin.Release()
			return err
		}
		pin.Release()
		var incTimes, fullTimes []time.Duration
		for i := 0; i < cfg.rounds(); i++ {
			if _, err := st.Update(ctx, mkOps(refreshOps, uint64(i+1)*0xA0761D6478BD642F)); err != nil {
				return err
			}
			pin, err := st.Acquire()
			if err != nil {
				return err
			}
			start := time.Now()
			err = refresh(pin)
			incTimes = append(incTimes, time.Since(start))
			if err == nil {
				start = time.Now()
				err = full(pin)
				fullTimes = append(fullTimes, time.Since(start))
			}
			pin.Release()
			if err != nil {
				return err
			}
		}
		stats := st.Stats()
		if stats.IncrementalRuns == 0 {
			fmt.Fprintf(w, "%s\t[no incremental runs: fell back to full recompute]\n", name)
			return nil
		}
		fs, is := medianSeconds(fullTimes), medianSeconds(incTimes)
		cfg.record("delta/"+name+"/full", fs)
		cfg.record("delta/"+name+"/incremental", is)
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.1fx\n", name, fs, is, fs/is)
		return nil
	}

	if !cfg.Expired() {
		emOpts := core.Options{}
		if err := run("components",
			func(pin *delta.Pin) error {
				_, _, err := pin.Store().RefreshCC(ctx, pin, emOpts)
				return err
			},
			func(pin *delta.Pin) error {
				_, err := algo.ConnectedComponentsCtx(ctx, pin.View(), emOpts)
				return err
			}); err != nil {
			return err
		}
	}
	if !cfg.Expired() {
		prOpts := algo.DefaultPageRankOptions()
		const prDelta = 1e-3
		if err := run("pagerank-delta",
			func(pin *delta.Pin) error {
				_, _, err := pin.Store().RefreshPageRankDelta(ctx, pin, prOpts, prDelta)
				return err
			},
			func(pin *delta.Pin) error {
				_, err := algo.PageRankDeltaCtx(ctx, pin.View(), prOpts, prDelta)
				return err
			}); err != nil {
			return err
		}
	}
	if cfg.Expired() {
		fmt.Fprintln(w, "[budget exhausted: remaining measurements skipped]")
		return w.Flush()
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return deepOverlay(cfg, g, mkOps)
}

// medianSeconds sorts ds and returns its median.
func medianSeconds(ds []time.Duration) float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2].Seconds()
}

// deepOverlay measures the regime a live graph spends most of its time in
// — every row replaced, nothing compacted yet — against the same graph as
// flat CSR: what a read costs over the overlay's row table
// (delta/bfs/*, delta/components/full-overlay-deep), what a small commit
// onto it costs (delta/apply/16-on-deep), and the two sides of
// IncrementalCC's cost gate (delta/components/incremental-delete-*): a
// delete inside small components is re-propagated, a delete inside the
// giant component falls back to the full run.
func deepOverlay(cfg Config, g *graph.Graph, mkOps func(count int, seed uint64) []delta.EdgeOp) error {
	ctx := context.Background()
	n := uint32(g.NumVertices())
	rounds := cfg.rounds()
	const batch = 16 // the serving benchmark's update size

	// One batch dirties every row and leaves the edge set as it was: each
	// vertex's first edge is deleted and put back. It also grows the graph
	// by 4-vertex paths, the small components the gated refresh is timed on.
	var deepen []delta.EdgeOp
	for v := uint32(0); v < n; v++ {
		g.OutNeighbors(v, func(d uint32, w int32) bool {
			deepen = append(deepen, delta.EdgeOp{Src: v, Dst: d, Del: true}, delta.EdgeOp{Src: v, Dst: d, Weight: w})
			return false
		})
	}
	islands := uint32(rounds * batch)
	for i := uint32(0); i < islands; i++ {
		a := n + 4*i
		deepen = append(deepen, delta.EdgeOp{Src: a, Dst: a + 1}, delta.EdgeOp{Src: a + 1, Dst: a + 2}, delta.EdgeOp{Src: a + 2, Dst: a + 3})
	}
	st := delta.NewStore(g, delta.Config{Policy: delta.Policy{CompactEvery: -1, HistoryDepth: 64}})
	defer st.Release()
	if _, err := st.Update(ctx, deepen); err != nil {
		return err
	}
	pin, err := st.Acquire()
	if err != nil {
		return err
	}
	defer pin.Release()
	overlay := pin.View()
	flat, err := delta.Materialize(overlay)
	if err != nil {
		return err
	}

	fmt.Fprintf(cfg.Out, "Deep overlay (%d of %d rows replaced) vs the same graph as flat CSR (seconds)\n",
		st.Gauges().DirtyRows, overlay.NumVertices())
	w := cfg.tab()
	fmt.Fprintln(w, "measurement\tcsr\toverlay\tratio")
	src := pickSource(flat)
	bfsFlat := Measure(rounds, func() { algo.BFS(flat, src, core.Options{}) }).Median.Seconds()
	bfsDeep := Measure(rounds, func() { algo.BFS(overlay, src, core.Options{}) }).Median.Seconds()
	cfg.record("delta/bfs/csr", bfsFlat)
	cfg.record("delta/bfs/overlay-deep", bfsDeep)
	fmt.Fprintf(w, "BFS\t%.5f\t%.5f\t%.2fx\n", bfsFlat, bfsDeep, bfsDeep/bfsFlat)
	ccFlat := Measure(rounds, func() { algo.ConnectedComponents(flat, core.Options{}) }).Median.Seconds()
	ccDeep := Measure(rounds, func() { algo.ConnectedComponents(overlay, core.Options{}) }).Median.Seconds()
	cfg.record("delta/components/full-overlay-deep", ccDeep)
	fmt.Fprintf(w, "Components\t%.5f\t%.5f\t%.2fx\n", ccFlat, ccDeep, ccDeep/ccFlat)
	if err := w.Flush(); err != nil {
		return err
	}

	// refresh applies ops (untimed) and times RefreshCC on the snapshot
	// they produce, reporting which path served it.
	refresh := func(ops []delta.EdgeOp) (time.Duration, bool, error) {
		if _, err := st.Update(ctx, ops); err != nil {
			return 0, false, err
		}
		pin, err := st.Acquire()
		if err != nil {
			return 0, false, err
		}
		defer pin.Release()
		start := time.Now()
		_, incremental, err := st.RefreshCC(ctx, pin, core.Options{})
		return time.Since(start), incremental, err
	}
	if _, _, err := refresh(nil); err != nil { // seed the tracker: a full run
		return err
	}
	fmt.Fprintf(cfg.Out, "Components refresh after a %d-op batch on the deep overlay (full run above: %.5f s)\n", batch, ccDeep)
	w = cfg.tab()
	fmt.Fprintln(w, "batch\trefresh s\tpath")
	cases := []struct {
		id  string
		ops func(round int) []delta.EdgeOp
	}{
		// Cut the middle edge of 16 fresh 4-vertex paths.
		{"incremental-delete-small", func(round int) []delta.EdgeOp {
			ops := make([]delta.EdgeOp, batch)
			for i := range ops {
				a := n + 4*uint32(round*batch+i)
				ops[i] = delta.EdgeOp{Src: a + 1, Dst: a + 2, Del: true}
			}
			return ops
		}},
		// The serving mix: 12 inserts and 4 deletes of edges of the base
		// graph, all but certainly inside its giant component.
		{"incremental-delete-giant", func(round int) []delta.EdgeOp {
			ops := mkOps(batch-4, uint64(round+1)*0xD6E8FEB86659FD93)
			for v := uint32(round * 4); len(ops) < batch; v++ {
				g.OutNeighbors(v%n, func(d uint32, _ int32) bool {
					ops = append(ops, delta.EdgeOp{Src: v % n, Dst: d, Del: true})
					return false
				})
			}
			return ops
		}},
	}
	for _, c := range cases {
		var times []time.Duration
		incrementalRuns := 0
		for round := 0; round < rounds; round++ {
			d, incremental, err := refresh(c.ops(round))
			if err != nil {
				return err
			}
			times = append(times, d)
			if incremental {
				incrementalRuns++
			}
		}
		med := medianSeconds(times)
		cfg.record("delta/components/"+c.id, med)
		fmt.Fprintf(w, "%s\t%.5f\t%d of %d incremental\n", c.id, med, incrementalRuns, rounds)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	const applyBatches = 8
	seed := uint64(0)
	t := Measure(rounds, func() {
		for i := 0; i < applyBatches; i++ {
			seed++
			if _, err := st.Update(ctx, mkOps(batch, seed*0x9E3779B97F4A7C15)); err != nil {
				panic(fmt.Errorf("delta bench apply: %w", err))
			}
		}
	})
	perBatch := t.Median.Seconds() / applyBatches
	cfg.record("delta/apply/16-on-deep", perBatch)
	fmt.Fprintf(cfg.Out, "Commit of %d ops onto the deep overlay: %.6f s/batch\n", batch, perBatch)
	return nil
}
