package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"ligra/internal/algo"
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
	// named measurement, so ligra-bench -json can persist individual
	// timings rather than whole-experiment wall times.
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
		src := Source(base)
		for _, app := range Apps() {
			if cfg.budgetExhausted(w) {
				return w.Flush()
			}
			g := graph.View(base)
			if app.NeedsWeights {
				g = WeightGraph(base)
			}
			tSeq := Measure(cfg.rounds(), func() { app.RunSeq(g, src) })

			// Worker counts ride per-call ctx leases (Options.Procs →
			// parallel.WithProcs, see leased), never a process-wide
			// setting: the sweep must not leak its cap into anything
			// running concurrently. The lease caps every loop of the run.
			t1 := Measure(cfg.rounds(), func() { app.Run(g, src, core.Options{Procs: 1}) })
			tP := Measure(cfg.rounds(), func() { app.Run(g, src, core.Options{}) })

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
	// (Options.Procs), not GOMAXPROCS: leases compose as
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
	src := Source(base)
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
			tm := Measure(cfg.rounds(), func() { app.Run(g, src, opts) })
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
		must(algo.BFSCtx(context.Background(), g, Source(g), core.Options{Trace: tr}))
		fmt.Fprintf(cfg.Out, "BFS frontier trace on %s (n=%d, m=%d, threshold=m/20=%d)\n",
			in.Name, g.NumVertices(), g.NumEdges(), g.NumEdges()/core.DefaultThresholdDenominator)
		w := cfg.tab()
		fmt.Fprintln(w, "Round\t|Frontier|\tOutDegrees\tMode\tOutput\tTime")
		for _, e := range tr.Entries {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%s\n",
				e.Round, e.FrontierSize, e.OutDegrees, e.Mode, e.OutputSize, e.Duration)
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
	variants := []variant{{"sparse-only", core.Options{Mode: core.Sparse}}}
	for _, d := range denoms {
		variants = append(variants, variant{
			fmt.Sprintf("m/%d", d),
			core.Options{Threshold: m / d},
		})
	}
	variants = append(variants, variant{"dense-only", core.Options{Mode: core.Pull}})
	src := Source(g)

	apps := []struct {
		name string
		run  func(opts core.Options)
	}{
		{"BFS", func(o core.Options) {
			must(algo.BFSCtx(context.Background(), g, src, o))
		}},
		{"Components", func(o core.Options) { must(algo.ConnectedComponentsCtx(context.Background(), g, o)) }},
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
			must(algo.PageRankCtx(context.Background(), g, algo.PageRankOptions{Damping: 0.85, MaxIterations: 1, EdgeMap: o}))
		}},
		{"Components", func(o core.Options) { must(algo.ConnectedComponentsCtx(context.Background(), g, o)) }},
	}
	fmt.Fprintf(cfg.Out, "Dense vs dense-forward on %s (seconds, median of %d)\n", in.Name, cfg.rounds())
	w := cfg.tab()
	fmt.Fprintln(w, "Application\tdense (pull)\tdense-forward (push)")
	for _, a := range apps {
		if cfg.budgetExhausted(w) {
			break
		}
		t1 := Measure(cfg.rounds(), func() { a.run(core.Options{Mode: core.Pull}) })
		t2 := Measure(cfg.rounds(), func() { a.run(core.Options{Mode: core.Forward}) })
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\n", a.name, t1.Median.Seconds(), t2.Median.Seconds())
	}
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
		"scheduler":    Scheduler,
		"batch":        Batch,
	}
}

// ExperimentOrder lists the IDs in presentation order.
func ExperimentOrder() []string {
	return []string{"table1", "table2", "scalability", "frontier", "threshold", "denseforward", "scheduler", "batch"}
}
