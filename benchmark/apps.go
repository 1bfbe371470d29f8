package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"ligra"
	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/seq"
)

// The paper's six applications (Table 2), by their registry names. One
// operation of an apps-* workload is one pass: each application run once,
// default backend, from one seed-sampled source in the giant component.
var appNames = []string{"bfs", "bc", "radii", "components", "pagerank", "bellman-ford"}

// appKey is the application's name inside a metric name.
func appKey(app string) string { return strings.ReplaceAll(app, "-", "") }

// appRun is one timed run of one application through the registry.
type appRun struct {
	ms      float64
	details map[string]any
	err     error
}

func runApp(ctx context.Context, g graph.View, app string, p algo.Params) appRun {
	r, ok := algo.FindRunner(app)
	if !ok {
		return appRun{err: algo.UnknownAlgoError(app)}
	}
	start := time.Now()
	res, err := r.Run(ctx, g, p)
	return appRun{ms: msSince(start), details: res.Details, err: err}
}

// ms is a duration in milliseconds, with its fraction.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// passParams are the inputs of pass i: a source for the traversals and a
// sample seed for Radii, both drawn from the workload seed.
func passParams(sources []uint32, seed uint64, i int) algo.Params {
	return algo.Params{Source: sources[i%len(sources)], Seed: seed*1000003 + uint64(i) + 1}
}

func buildAppsGraph(family string, rc runConfig) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	switch family {
	case "rmat":
		g, err = gen.RMAT(rc.sz.appsRMATScale, 16, gen.PBBSRMAT, graphSeed)
	case "grid":
		g, err = gen.Grid3D(rc.sz.gridSide)
	default:
		err = fmt.Errorf("unknown graph family %q", family)
	}
	if err != nil {
		return nil, err
	}
	return g.AddWeights(graph.HashWeight(100)), nil
}

// graphSeed fixes the generated graphs. The workload seed picks sources,
// sample seeds and request lists, not the graph: PageRank's iteration count
// and the component structure differ from one rMat instance to the next
// (25 to 32 iterations at scale 18), which would make every metric depend
// on the seed far more than on the code under test.
const graphSeed = 42

// csrBytes is the size of the CSR arrays a traversal reads: 8-byte
// offsets, 4-byte targets, 4-byte weights.
func csrBytes(g graph.View) float64 {
	b := 8*float64(g.NumVertices()+1) + 4*float64(g.NumEdges())
	if g.Weighted() {
		b += 4 * float64(g.NumEdges())
	}
	return b
}

func runApps(ctx context.Context, rc runConfig, family string) (outcome, error) {
	// Set-up, repeated so its cost is a median: generate the graph and
	// attach weights. The warm-up pass below is paid once and added.
	reps := rc.sz.setupReps
	if rc.traced {
		reps = 1 // the traced pass reports no set-up time
	}
	var g *graph.Graph
	var buildS []float64
	for i := 0; i < reps; i++ {
		g = nil
		runtime.GC() // so the previous copy does not count towards peak RSS
		start := time.Now()
		var err error
		if g, err = buildAppsGraph(family, rc); err != nil {
			return outcome{}, err
		}
		buildS = append(buildS, time.Since(start).Seconds())
	}

	// The checker's own preparation, not the system's set-up.
	oracle := newCompOracle(g)
	rng := rand.New(rand.NewSource(int64(rc.seed)))
	sources := oracle.giantPermutation(rng)
	if len(sources) > 256 {
		sources = sources[:256]
	}
	h := sha256.New()
	fmt.Fprintf(h, "apps %s n=%d m=%d seed=%d", family, g.NumVertices(), g.NumEdges(), rc.seed)
	binary.Write(h, binary.LittleEndian, sources)
	requestHash := hex.EncodeToString(h.Sum(nil))[:16]

	warmStart := time.Now()
	for _, app := range appNames {
		if r := runApp(ctx, g, app, passParams(sources, rc.seed, 0)); r.err != nil {
			return outcome{}, fmt.Errorf("warm-up %s: %w", app, r.err)
		}
	}
	setupS := median(buildS) + time.Since(warmStart).Seconds()
	// From here on the high-water mark is the graph plus traversal state,
	// not the generator's edge list (or an earlier workload's graph).
	debug.FreeOSMemory()
	resetPeakRSS()

	if rc.traced {
		return tracedApps(ctx, rc, family, g, oracle, sources, requestHash, median(buildS))
	}

	// Timed window: whole passes until the window is used up.
	var passes [][]appRun
	var passMs []float64
	cpu0 := selfCPU()
	start := time.Now()
	for i := 1; time.Since(start).Seconds() < rc.seconds; i++ {
		p := passParams(sources, rc.seed, i)
		t := time.Now()
		runs := make([]appRun, len(appNames))
		for j, app := range appNames {
			runs[j] = runApp(ctx, g, app, p)
		}
		passMs = append(passMs, msSince(t))
		passes = append(passes, runs)
	}
	elapsed := time.Since(start).Seconds()
	cpuMs := (selfCPU() - cpu0).Seconds() * 1000
	rss := procStatusMB(os.Getpid(), "VmHWM")

	// Check pass, outside the timed region: every run against the O(1)
	// oracle, then one whole-result comparison per application.
	var f failures
	for i, runs := range passes {
		var pass failures
		checkPass(&pass, oracle, passParams(sources, rc.seed, i+1).Source, runs)
		if pass.n > 0 { // a pass is one operation however many of its runs are wrong
			f.n++
			f.notes = append(f.notes, pass.notes...)
		}
	}
	for _, msg := range deepCheckApps(ctx, g, sources[0], rc.seed+1) {
		f.addf("deep check: %s", msg)
	}

	return outcome{
		values: map[string]float64{
			"throughput_ops_s": float64(len(passes)) / elapsed,
			"latency_p50_ms":   median(passMs),
			"cpu_ms_per_op":    cpuMs / float64(len(passes)),
			"peak_rss_mb":      rss,
			"setup_s":          setupS,
		},
		attempted: len(passes), failed: f.n, samples: len(passMs),
		requestHash: requestHash, notes: f.notes,
	}, nil
}

// checkPass holds the scalars one pass's runners returned against the
// component oracle.
func checkPass(f *failures, o *compOracle, src uint32, runs []appRun) {
	want := o.sizeOf(src)
	for j, app := range appNames {
		r := runs[j]
		if r.err != nil {
			f.addf("%s from %d: %v", app, src, r.err)
			continue
		}
		d := r.details
		switch app {
		case "bfs":
			if int(detailNum(d, "visited")) != want {
				f.addf("bfs from %d visited %v, its component has %d vertices", src, d["visited"], want)
			}
		case "bc":
			// Brandes' forward sweep is a BFS: same depth as the bfs run.
			if detailNum(d, "rounds") != detailNum(runs[0].details, "rounds") || !(detailNum(d, "max_score") >= 0) {
				f.addf("bc from %d: %v forward rounds (bfs took %v), max score %v", src, d["rounds"], runs[0].details["rounds"], d["max_score"])
			}
		case "radii":
			if lb := detailNum(d, "diameter_lower_bound"); !(lb >= 1) || lb > detailNum(d, "rounds") {
				f.addf("radii: diameter lower bound %v after %v rounds", d["diameter_lower_bound"], d["rounds"])
			}
		case "components":
			if int(detailNum(d, "components")) != o.count {
				f.addf("components found %v, sequential union-find found %d", d["components"], o.count)
			}
		case "pagerank":
			if it := detailNum(d, "iterations"); !(it >= 1) || !(detailNum(d, "l1_change") < 1e-7) {
				f.addf("pagerank stopped after %v iterations at L1 change %v", d["iterations"], d["l1_change"])
			}
		case "bellman-ford":
			if int(detailNum(d, "reached")) != want {
				f.addf("bellman-ford from %d reached %v, its component has %d vertices", src, d["reached"], want)
			}
		}
	}
}

// detailNum reads a numeric result detail, whatever Go type the runner
// (in process) or encoding/json (over the wire) gave it; NaN when absent.
func detailNum(d map[string]any, k string) float64 {
	switch v := d[k].(type) {
	case int:
		return float64(v)
	case int32:
		return float64(v)
	case int64:
		return float64(v)
	case uint32:
		return float64(v)
	case float64:
		return v
	}
	return math.NaN()
}

// selfCPU is this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracedApps is the per-layer pass of an apps-* workload. It alternates
// untraced and traced passes (core.Options.Trace on) for half the window
// — their difference is the tracing overhead — and then runs each
// variant the layer metrics need once or twice: one worker, the spmv
// backend, the compressed and memory-mapped representations, and the
// plain sequential baseline.
func tracedApps(ctx context.Context, rc runConfig, family string, g *graph.Graph, oracle *compOracle, sources []uint32, requestHash string, buildS float64) (outcome, error) {
	tr := newTracer()
	var f failures
	attempted := 0
	v := map[string]float64{
		"gen.build_s":     buildS,
		"graph.memory_mb": csrBytes(g) / (1 << 20),
	}

	untraced := map[string][]float64{} // app -> ms per run, tracing off
	series := map[string][]float64{}   // per-app metric -> one sample per traced run
	var prIters []float64              // pagerank iterations per run
	var untracedPass, tracedPass []float64
	var agg roundAgg

	sched0, stats0 := parallel.SchedulerSnapshot(), core.SnapshotStats()
	start := time.Now()
	for i := 1; i == 1 || time.Since(start).Seconds() < rc.seconds/2; i++ {
		p := passParams(sources, rc.seed, i)
		runs := make([]appRun, len(appNames))
		t := time.Now()
		for j, app := range appNames {
			runs[j] = runApp(ctx, g, app, p)
			untraced[app] = append(untraced[app], runs[j].ms)
		}
		untracedPass = append(untracedPass, msSince(t))
		checkPass(&f, oracle, p.Source, runs)
		attempted += len(runs)

		t = time.Now()
		for j, app := range appNames {
			trace := &core.Trace{}
			tp := p
			tp.EdgeMap.Trace = trace
			runStart := time.Now()
			runs[j] = runApp(ctx, g, app, tp)
			runEnd := time.Now()
			op := i*len(appNames) + j
			id := tr.add("algo.run", runStart, runEnd, 0, op, map[string]any{"app": app, "source": p.Source})
			tr.addRounds(trace, runStart, id, op)

			sp, de, ed := agg.add(trace, g)
			runDur := runEnd.Sub(runStart)
			k := appKey(app)
			for name, sample := range map[string]float64{
				"algo." + k + ".run_ms":        runs[j].ms,
				"algo." + k + ".self_share":    ratio(float64(runDur-sp-de), float64(runDur)),
				"core." + k + ".rounds":        float64(len(trace.Entries)),
				"core." + k + ".sparse_ms":     ms(sp),
				"core." + k + ".dense_ms":      ms(de),
				"core." + k + ".edges_scanned": float64(ed),
			} {
				series[name] = append(series[name], sample)
			}
			if app == "pagerank" {
				prIters = append(prIters, detailNum(runs[j].details, "iterations"))
			}
		}
		tracedPass = append(tracedPass, msSince(t))
		checkPass(&f, oracle, p.Source, runs)
		attempted += len(runs)
	}
	sched := parallel.SchedulerSnapshot().Sub(sched0)
	stats := core.SnapshotStats().Sub(stats0)

	for name, samples := range series {
		v[name] = median(samples)
	}
	prIterMs := ratio(median(untraced["pagerank"]), median(prIters))
	v["algo.pagerank.iter_ms"] = ratio(v["algo.pagerank.run_ms"], median(prIters))
	agg.emit(v)
	v["core.seq_rounds"] = float64(stats.SeqRounds)
	v["parallel.pool_workers"] = float64(sched.PoolWorkers)
	v["parallel.dispatches"] = float64(sched.Dispatches)
	v["parallel.inline_runs"] = float64(sched.InlineRuns)
	v["parallel.wakes"] = float64(sched.Wakes)
	v["parallel.dispatch_per_round"] = ratio(float64(sched.Dispatches), float64(stats.Calls))
	v["trace.overhead_share"] = ratio(median(tracedPass)-median(untracedPass), median(untracedPass))

	// Variants: the median of two runs each, same source as pass 1.
	p := passParams(sources, rc.seed, 1)
	variant := func(view graph.View, app string, mod func(*algo.Params)) (ms, iterations float64) {
		vp := p
		if mod != nil {
			mod(&vp)
		}
		var times []float64
		for k := 0; k < 2; k++ {
			r := runApp(ctx, view, app, vp)
			attempted++
			if r.err != nil {
				f.addf("%s variant: %v", app, r.err)
				return 0, 0
			}
			if app == "bfs" && int(detailNum(r.details, "visited")) != oracle.sizeOf(vp.Source) {
				f.addf("bfs variant from %d visited %v, its component has %d", vp.Source, r.details["visited"], oracle.sizeOf(vp.Source))
			}
			if app == "components" && int(detailNum(r.details, "components")) != oracle.count {
				f.addf("components variant found %v, sequential found %d", r.details["components"], oracle.count)
			}
			if it := detailNum(r.details, "iterations"); it > 0 {
				iterations = it
			}
			times = append(times, r.ms)
		}
		return median(times), iterations
	}
	oneProc := func(p *algo.Params) { p.EdgeMap.Procs = 1 }
	spmv := func(p *algo.Params) { p.Backend = algo.BackendSpMV }

	bfs1, _ := variant(g, "bfs", oneProc)
	cc1, _ := variant(g, "components", oneProc)
	pr1, pr1It := variant(g, "pagerank", oneProc)
	v["parallel.bfs_p1_ms"] = bfs1
	v["parallel.components_p1_ms"] = cc1
	v["parallel.pagerank_iter_p1_ms"] = ratio(pr1, pr1It)
	v["parallel.speedup_bfs"] = ratio(bfs1, median(untraced["bfs"]))
	v["parallel.speedup_components"] = ratio(cc1, median(untraced["components"]))
	v["parallel.speedup_pagerank"] = ratio(ratio(pr1, pr1It), prIterMs)

	sbfs, _ := variant(g, "bfs", spmv)
	spr, sprIt := variant(g, "pagerank", spmv)
	v["spmv.bfs_ms"] = sbfs
	v["spmv.pagerank_iter_ms"] = ratio(spr, sprIt)
	v["spmv.bfs_vs_edgemap"] = ratio(sbfs, median(untraced["bfs"]))
	v["spmv.pagerank_vs_edgemap"] = ratio(ratio(spr, sprIt), prIterMs)

	t := time.Now()
	cg, err := ligra.Compress(g)
	if err != nil {
		return outcome{}, fmt.Errorf("compress: %w", err)
	}
	v["compress.encode_s"] = time.Since(t).Seconds()
	v["compress.bytes_per_edge"] = ratio(float64(cg.SizeBytes()), float64(g.NumEdges()))
	cbfs, _ := variant(cg, "bfs", nil)
	ccc, _ := variant(cg, "components", nil)
	cpr, cprIt := variant(cg, "pagerank", nil)
	v["compress.bfs_ms"] = cbfs
	v["compress.components_ms"] = ccc
	v["compress.pagerank_iter_ms"] = ratio(cpr, cprIt)
	v["compress.slowdown_bfs"] = ratio(cbfs, median(untraced["bfs"]))
	path := filepath.Join(rc.root, "benchmark", "out", rc.workload+".gc")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return outcome{}, err
	}
	if err := ligra.SaveCompressed(path, cg); err != nil {
		return outcome{}, err
	}
	defer os.Remove(path)
	mapped, err := ligra.Load(path, ligra.LoadOptions{MMap: true})
	if err != nil {
		return outcome{}, fmt.Errorf("mmap load: %w", err)
	}
	v["compress.mmap_bfs_ms"], _ = variant(mapped, "bfs", nil)
	if c, ok := mapped.(interface{ Close() error }); ok {
		_ = c.Close() // read-only mapping; nothing to lose
	}

	t = time.Now()
	seq.BFS(g, p.Source)
	v["seq.bfs_ms"] = msSince(t)
	t = time.Now()
	seq.ConnectedComponents(g)
	v["seq.components_ms"] = msSince(t)
	v["core.bfs_vs_seq"] = ratio(median(untraced["bfs"]), v["seq.bfs_ms"])

	if err := tr.write(rc.root, rc.workload); err != nil {
		return outcome{}, err
	}
	return outcome{values: v, attempted: attempted, failed: f.n, samples: len(tracedPass),
		requestHash: requestHash, notes: f.notes}, nil
}
