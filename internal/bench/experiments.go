package bench

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"ligra/internal/algo"
	"ligra/internal/compress"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// Config parameterizes the experiment harness.
type Config struct {
	// Scale sets the synthetic graph sizes (~2^Scale vertices).
	Scale int
	// Rounds is the number of timed repetitions (median reported).
	Rounds int
	// MaxProcs caps the worker counts swept by the scalability
	// experiment; 0 means up to parallel.Procs(). Sweeps ride per-call
	// ctx leases, which clamp at the machine's worker count, so values
	// above it are reduced rather than oversubscribing.
	MaxProcs int
	// Deadline, when non-zero, is a wall-clock budget for the whole run:
	// experiments check it between measurements, skip the remainder, and
	// report the rows completed so far instead of running unbounded.
	Deadline time.Time
	// Out receives the rendered tables.
	Out io.Writer
	// Record, when non-nil, receives one (id, median seconds) pair per
	// named measurement, so harness drivers (ligra-bench -json / -against)
	// can persist and diff individual timings rather than whole-experiment
	// wall times.
	Record func(id string, seconds float64)
}

// record forwards a named measurement to the Record hook, if any.
func (c Config) record(id string, seconds float64) {
	if c.Record != nil {
		c.Record(id, seconds)
	}
}

// Expired reports whether the wall-clock budget (if any) is exhausted.
func (c Config) Expired() bool {
	return !c.Deadline.IsZero() && time.Now().After(c.Deadline)
}

// budgetExhausted prints the partial-results note to w when the budget
// ran out; callers break out of their measurement loop on true.
func (c Config) budgetExhausted(w io.Writer) bool {
	if !c.Expired() {
		return false
	}
	fmt.Fprintln(w, "[budget exhausted: remaining measurements skipped]")
	return true
}

func (c Config) rounds() int {
	if c.Rounds < 1 {
		return 3
	}
	return c.Rounds
}

func (c Config) tab() *tabwriter.Writer {
	return tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
}

// buildSuite constructs every input of the suite, reporting progress.
func buildSuite(cfg Config) ([]Input, map[string]*graph.Graph, error) {
	suite := DefaultSuite(cfg.Scale)
	built := make(map[string]*graph.Graph, len(suite))
	for _, in := range suite {
		g, err := in.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", in.Name, err)
		}
		built[in.Name] = g
	}
	return suite, built, nil
}

// Table1 prints the input-graph table (paper Table 1: name, |V|, |E|).
func Table1(cfg Config) error {
	suite, built, err := buildSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Table 1: input graphs (scaled to container size; see DESIGN.md §4)")
	w := cfg.tab()
	fmt.Fprintln(w, "Input\tVertices\tDirected edges\tMax deg\tAvg deg\tStands in for")
	for _, in := range suite {
		g := built[in.Name]
		s := graph.ComputeStats(g)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%s\n",
			in.Name, s.Vertices, s.Edges, s.MaxOutDeg, s.AvgDeg, in.Description)
	}
	return w.Flush()
}

// Table2 prints the running-time table (paper Table 2): for every input
// and application, the sequential baseline, the framework at one worker,
// and the framework at full parallelism.
func Table2(cfg Config) error {
	suite, built, err := buildSuite(cfg)
	if err != nil {
		return err
	}
	fullP := parallel.Procs()
	fmt.Fprintf(cfg.Out, "Table 2: running times in seconds (median of %d; P=%d workers)\n", cfg.rounds(), fullP)
	fmt.Fprintln(cfg.Out, "  serial = hand-written sequential baseline; (1)/(P) = Ligra with 1/P workers")
	w := cfg.tab()
	fmt.Fprintln(w, "Input\tApplication\tserial\t(1)\t(P)\toverhead(1)/serial")
	for _, in := range suite {
		base := built[in.Name]
		for _, app := range Apps() {
			if cfg.budgetExhausted(w) {
				return w.Flush()
			}
			g := graph.View(base)
			if app.NeedsWeights {
				g = WeightGraph(base)
			}
			tSeq := Measure(cfg.rounds(), func() { app.RunSeq(g) })

			// Worker counts ride per-call ctx leases (Options.Procs →
			// parallel.WithProcs), never the global SetProcs: the sweep
			// must not leak its cap into anything running concurrently.
			// The lease caps every ctx-aware loop of the run; the few
			// plain init loops (array fills) stay at full parallelism,
			// which only flatters the (1) column negligibly.
			t1 := Measure(cfg.rounds(), func() { app.Run(g, core.Options{Procs: 1}) })
			tP := Measure(cfg.rounds(), func() { app.Run(g, core.Options{}) })

			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.4f\t%.2fx\n",
				in.Name, app.Name,
				tSeq.Median.Seconds(), t1.Median.Seconds(), tP.Median.Seconds(),
				t1.Median.Seconds()/tSeq.Median.Seconds())
		}
	}
	return w.Flush()
}

// Scalability prints per-application running times versus worker count on
// the rMat input (the paper's log-log speedup figures).
func Scalability(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	base, err := in.Build()
	if err != nil {
		return err
	}
	// The sweep runs each worker count as a per-call ctx lease
	// (Options.Procs), not a global SetProcs: leases compose as
	// min(Procs(), cap), so counts above the machine's worker pool are
	// clamped — oversubscribing a persistent pool is meaningless, unlike
	// the old spawn-per-call runtime where extra goroutines could be
	// created on demand.
	maxP := cfg.MaxProcs
	if maxP <= 0 || maxP > parallel.Procs() {
		maxP = parallel.Procs()
	}
	var procsList []int
	for p := 1; p <= maxP; p *= 2 {
		procsList = append(procsList, p)
	}
	fmt.Fprintf(cfg.Out, "Scalability on %s (seconds, median of %d; note: hardware exposes %d CPU(s) — on a single-CPU container the curve is flat by construction, the harness is what the figure regenerates)\n",
		in.Name, cfg.rounds(), parallel.Procs())
	w := cfg.tab()
	header := "Application"
	for _, p := range procsList {
		header += fmt.Sprintf("\tT=%d", p)
	}
	fmt.Fprintln(w, header)
	for _, app := range Apps() {
		if cfg.budgetExhausted(w) {
			return w.Flush()
		}
		g := graph.View(base)
		if app.NeedsWeights {
			g = WeightGraph(base)
		}
		row := app.Name
		for _, p := range procsList {
			opts := core.Options{Procs: p}
			tm := Measure(cfg.rounds(), func() { app.Run(g, opts) })
			row += fmt.Sprintf("\t%.4f", tm.Median.Seconds())
		}
		fmt.Fprintln(w, row)
	}
	return w.Flush()
}

// Frontier prints the per-round BFS frontier trace (the paper's motivation
// figure for direction optimization): frontier size, outgoing edges, the
// representation edgeMap chose, and the round time.
func Frontier(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	for _, name := range []string{"rMat", "3d-grid"} {
		in, err := FindInput(suite, name)
		if err != nil {
			return err
		}
		g, err := in.Build()
		if err != nil {
			return err
		}
		tr := &core.Trace{}
		algo.BFS(g, pickSource(g), core.Options{Trace: tr})
		fmt.Fprintf(cfg.Out, "BFS frontier trace on %s (n=%d, m=%d, threshold=m/20=%d)\n",
			in.Name, g.NumVertices(), g.NumEdges(), g.NumEdges()/core.DefaultThresholdDenominator)
		w := cfg.tab()
		fmt.Fprintln(w, "Round\t|Frontier|\tOutDegrees\tMode\tOutput\tTime")
		for _, e := range tr.Entries {
			mode := "sparse"
			if e.Dense {
				mode = "dense"
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%s\n",
				e.Round, e.FrontierSize, e.OutDegrees, mode, e.OutputSize, e.Duration)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Threshold prints BFS and Components running times across edgeMap switch
// thresholds (the paper's sensitivity analysis around the m/20 default),
// including the sparse-only and dense-only extremes.
func Threshold(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	g, err := in.Build()
	if err != nil {
		return err
	}
	m := g.NumEdges()
	denoms := []int64{1, 5, 10, 20, 40, 80, 160, 320, 1000}

	type variant struct {
		label string
		opts  core.Options
	}
	variants := []variant{{"sparse-only", core.Options{Mode: core.ForceSparse}}}
	for _, d := range denoms {
		variants = append(variants, variant{
			fmt.Sprintf("m/%d", d),
			core.Options{Threshold: m / d},
		})
	}
	variants = append(variants, variant{"dense-only", core.Options{Mode: core.ForceDense}})

	apps := []struct {
		name string
		run  func(opts core.Options)
	}{
		{"BFS", func(o core.Options) { algo.BFS(g, pickSource(g), o) }},
		{"Components", func(o core.Options) { algo.ConnectedComponents(g, o) }},
	}
	fmt.Fprintf(cfg.Out, "EdgeMap threshold sensitivity on %s (seconds, median of %d; paper default m/20)\n",
		in.Name, cfg.rounds())
	w := cfg.tab()
	fmt.Fprintln(w, "Variant\tBFS\tComponents")
	for _, v := range variants {
		if cfg.budgetExhausted(w) {
			break
		}
		row := v.label
		for _, a := range apps {
			tm := Measure(cfg.rounds(), func() { a.run(v.opts) })
			row += fmt.Sprintf("\t%.4f", tm.Median.Seconds())
		}
		fmt.Fprintln(w, row)
	}
	return w.Flush()
}

// DenseForward compares the read-based (pull) dense traversal against the
// write-based dense-forward variant on dense-frontier applications.
func DenseForward(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	g, err := in.Build()
	if err != nil {
		return err
	}
	apps := []struct {
		name string
		run  func(opts core.Options)
	}{
		{"PageRank(1 iter)", func(o core.Options) {
			algo.PageRank(g, algo.PageRankOptions{Damping: 0.85, MaxIterations: 1, EdgeMap: o})
		}},
		{"Components", func(o core.Options) { algo.ConnectedComponents(g, o) }},
	}
	fmt.Fprintf(cfg.Out, "Dense vs dense-forward on %s (seconds, median of %d)\n", in.Name, cfg.rounds())
	w := cfg.tab()
	fmt.Fprintln(w, "Application\tdense (pull)\tdense-forward (push)")
	for _, a := range apps {
		if cfg.budgetExhausted(w) {
			break
		}
		t1 := Measure(cfg.rounds(), func() { a.run(core.Options{Mode: core.ForceDense}) })
		t2 := Measure(cfg.rounds(), func() {
			a.run(core.Options{Mode: core.ForceDense, DenseForward: true})
		})
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\n", a.name, t1.Median.Seconds(), t2.Median.Seconds())
	}
	return w.Flush()
}

// CompressAblation measures the compressed backend end to end (the Ligra+
// extension experiment, plus this repo's LIGRAGC1 format and the
// GPOP-style partition-blocked dense sweep):
//
//   - resident footprint: CSR MemoryFootprint vs compressed SizeBytes vs
//     the mmap-backed heap footprint (~0; the bytes live in the page cache)
//   - format round-trip cost: WriteCompressed / ReadCompressed (full
//     validation decode) / OpenMapped on a temp file
//   - traversal time per backend: CSR, compressed (blocked dense sweep)
//     and the mmap-backed graph
//
// Per-measurement ids are recorded ("compress/<app>-<backend>") so
// ligra-bench -against can diff decoder regressions individually.
func CompressAblation(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	g, err := in.Build()
	if err != nil {
		return err
	}
	c, err := compress.Compress(g)
	if err != nil {
		return err
	}
	csrBytes := g.MemoryFootprint()
	fmt.Fprintf(cfg.Out, "Ligra+ compression on %s: CSR %d bytes resident -> compressed %d bytes (%.2fx smaller)\n",
		in.Name, csrBytes, c.SizeBytes(), float64(csrBytes)/float64(c.SizeBytes()))

	// Format round trip through a temp file: write, validated heap read,
	// and mmap open (validation decode faults every page in once).
	f, err := os.CreateTemp("", "ligra-bench-*.gc")
	if err != nil {
		return err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	start := time.Now()
	if err := compress.WriteCompressedFile(path, c); err != nil {
		return err
	}
	writeDur := time.Since(start)
	start = time.Now()
	if _, err := compress.ReadCompressedFile(path); err != nil {
		return err
	}
	readDur := time.Since(start)
	start = time.Now()
	mapped, err := compress.OpenMapped(path)
	if err != nil {
		return err
	}
	mmapDur := time.Since(start)
	fmt.Fprintf(cfg.Out, "LIGRAGC1 round trip: write %.3fs, read+validate %.3fs, mmap+validate %.3fs; mapped graph: heap %d bytes, mapped %d bytes\n",
		writeDur.Seconds(), readDur.Seconds(), mmapDur.Seconds(),
		mapped.MemoryFootprint(), mapped.MappedBytes())
	cfg.record("compress/write", writeDur.Seconds())
	cfg.record("compress/read", readDur.Seconds())

	apps := []struct {
		name string
		run  func(v graph.View)
	}{
		{"BFS", func(v graph.View) { algo.BFS(v, pickSource(v), core.Options{}) }},
		{"PageRank1", func(v graph.View) {
			algo.PageRank(v, algo.PageRankOptions{Damping: 0.85, MaxIterations: 1})
		}},
		{"Components", func(v graph.View) { algo.ConnectedComponents(v, core.Options{}) }},
	}
	backends := []struct {
		id string
		v  graph.View
	}{
		{"csr", g},
		{"blocked", c},
		{"mmap", mapped},
	}
	w := cfg.tab()
	fmt.Fprintln(w, "Application\tCSR\tcompressed(blocked)\tcompressed(mmap)\tslowdown(blocked)")
	for _, a := range apps {
		if cfg.budgetExhausted(w) {
			break
		}
		row := a.name
		var times []float64
		for _, b := range backends {
			tm := Measure(cfg.rounds(), func() { a.run(b.v) })
			times = append(times, tm.Median.Seconds())
			row += fmt.Sprintf("\t%.4f", tm.Median.Seconds())
			cfg.record("compress/"+a.name+"-"+b.id, tm.Median.Seconds())
		}
		fmt.Fprintf(w, "%s\t%.2fx\n", row, times[1]/times[0])
	}
	return w.Flush()
}

// BucketingAblation compares delta-stepping over the Julienne bucket
// structure against frontier Bellman-Ford, on the scale-free rMat and on
// the weighted mesh the Julienne paper targets.
func BucketingAblation(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	g, err := in.Build()
	if err != nil {
		return err
	}
	wg := WeightGraph(g)
	src := pickSource(wg)

	fmt.Fprintf(cfg.Out, "Bucketing (Julienne extension) on %s (seconds, median of %d)\n", in.Name, cfg.rounds())
	w := cfg.tab()
	fmt.Fprintln(w, "Workload\tbaseline\tbucketed")
	if cfg.budgetExhausted(w) {
		return w.Flush()
	}
	tb1 := Measure(cfg.rounds(), func() { algo.BellmanFord(wg, src, core.Options{}) })
	tb2 := Measure(cfg.rounds(), func() {
		if _, err := algo.DeltaStepping(wg, src, 0, core.Options{}); err != nil {
			panic(err)
		}
	})
	fmt.Fprintf(w, "SSSP on rMat (Bellman-Ford vs delta-stepping)\t%.4f\t%.4f\n",
		tb1.Median.Seconds(), tb2.Median.Seconds())

	if cfg.budgetExhausted(w) {
		return w.Flush()
	}
	// The delta-stepping regime the Julienne paper targets: a weighted
	// high-diameter mesh with a wide weight range, where Bellman-Ford
	// re-relaxes wavefront vertices many times.
	gridIn, err := FindInput(suite, "3d-grid")
	if err != nil {
		return err
	}
	grid, err := gridIn.Build()
	if err != nil {
		return err
	}
	wgrid := grid.AddWeights(graph.HashWeight(1000))
	gsrc := pickSource(wgrid)
	tg1 := Measure(cfg.rounds(), func() { algo.BellmanFord(wgrid, gsrc, core.Options{}) })
	tg2 := Measure(cfg.rounds(), func() {
		if _, err := algo.DeltaStepping(wgrid, gsrc, 0, core.Options{}); err != nil {
			panic(err)
		}
	})
	fmt.Fprintf(w, "SSSP on 3d-grid/w1000 (Bellman-Ford vs delta-stepping)\t%.4f\t%.4f\n",
		tg1.Median.Seconds(), tg2.Median.Seconds())
	return w.Flush()
}

// Experiments maps experiment IDs (as used by cmd/ligra-bench and
// DESIGN.md's per-experiment index) to their runners.
func Experiments() map[string]func(Config) error {
	return map[string]func(Config) error{
		"table1":       Table1,
		"table2":       Table2,
		"scalability":  Scalability,
		"frontier":     Frontier,
		"threshold":    Threshold,
		"denseforward": DenseForward,
		"compress":     CompressAblation,
		"bucketing":    BucketingAblation,
		"hotpath":      HotPath,
		"scheduler":    Scheduler,
		"batch":        Batch,
		"delta":        DeltaUpdates,
		"spmv":         SpMV,
	}
}

// ExperimentOrder lists the IDs in presentation order.
func ExperimentOrder() []string {
	return []string{"table1", "table2", "scalability", "frontier", "threshold", "denseforward", "compress", "bucketing", "hotpath", "scheduler", "batch", "delta", "spmv"}
}
