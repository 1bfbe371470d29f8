package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/server"
)

// defaultServerConfig mirrors cmd/ligra-serve's flag defaults, so the
// in-process handler the traced pass replays requests against is the
// handler the binary runs. The smoke test holds it to that by comparing
// the /metrics of the two.
func defaultServerConfig() server.Config {
	return server.Config{
		QueueWait:        100 * time.Millisecond,
		DefaultTimeout:   30 * time.Second,
		MaxTimeout:       60 * time.Second,
		CacheBytes:       64 << 20,
		ShedTarget:       time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
		RetryBudget:      10,
		WatchdogGrace:    2 * time.Second,
		BatchWindow:      2 * time.Millisecond,
		BatchMax:         64,
		UpdateWindow:     5 * time.Millisecond,
	}
}

// newInProcessServer builds the handler stack in this process and loads
// g under the same name the subprocess hosts it.
func newInProcessServer(ctx context.Context, g graph.View) (*server.Server, error) {
	s := server.New(defaultServerConfig())
	_, err := s.Registry().Load(ctx, graphName, "benchmark:in-process", func() (graph.View, error) { return g, nil })
	return s, err
}

// peeled is one sampled operation taken apart layer by layer.
type peeled struct {
	algo      string
	miss      bool    // the real reply came from an execution, not the cache
	roundtrip float64 // ms, client to subprocess and back
	handler   float64 // ms, the same request against the in-process handler
	run       float64 // ms, the bare registry runner on the same view and parameters
}

// peel replays sampled operations one layer down at a time: the request
// against the in-process handler (server.handler), then — unless the
// reply was a cache hit — the bare runner with core.Options.Trace on
// (algo.run, one child span per edgeMap round). The replays happen after the window, so a child span's clock
// interval lies outside its parent's; Parent links the layers of one
// operation, and self time is still span minus children. Updates are not
// peeled, and on serve-mixed the replay runs against the base graph.
func peel(ctx context.Context, tr *tracer, g graph.View, recs []record, replies []wireReply, good []bool, agg *roundAgg) ([]peeled, error) {
	srv, err := newInProcessServer(ctx, g)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	var sample []int
	for i := range recs {
		if recs[i].span != 0 && good[i] && recs[i].req.algo != "" {
			sample = append(sample, i)
		}
	}
	const want = 32
	step := max(1, len(sample)/want)
	var out []peeled
	for k := 0; k < len(sample); k += step {
		i := sample[k]
		req, rep := recs[i].req, replies[i]
		p := peeled{algo: req.algo, miss: !rep.Cached && !rep.Coalesced, roundtrip: recs[i].latencyMs - recs[i].lagMs}

		replay := func() (time.Time, time.Time, int) {
			r := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
			w := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(w, r)
			return start, time.Now(), w.Code
		}
		if !p.miss {
			replay() // fill the in-process cache so the measured replay is a hit too
		}
		start, end, code := replay()
		if code != http.StatusOK {
			return nil, fmt.Errorf("in-process replay of %s answered %d", req.algo, code)
		}
		p.handler = ms(end.Sub(start))
		hid := tr.add("server.handler", start, end, recs[i].span, recs[i].span, map[string]any{"algo": req.algo, "cached": !p.miss})

		if p.miss { // a cache hit ran no algorithm: its handler span has no children
			trace := &core.Trace{}
			params := algo.Params{Source: req.source, Target: req.target, Landmarks: req.landmarks}
			params.EdgeMap.Trace = trace
			runner, _ := algo.FindRunner(req.algo)
			start = time.Now()
			if _, err := runner.Run(ctx, g, params); err != nil {
				return nil, fmt.Errorf("bare %s runner: %w", req.algo, err)
			}
			end = time.Now()
			p.run = ms(end.Sub(start))
			rid := tr.add("algo.run", start, end, hid, recs[i].span, map[string]any{"algo": req.algo})
			tr.addRounds(trace, start, rid, recs[i].span)
			agg.add(trace, g)
		}
		out = append(out, p)
	}
	return out, nil
}

// roundAgg sums what core.Trace recorded over many runs.
type roundAgg struct {
	sparse, dense time.Duration
	edges, bytes  float64
}

// add accumulates one run's trace and returns that run's own split: time
// in sparse and in dense edgeMap rounds, and the frontier out-degrees the
// rounds weighed.
func (a *roundAgg) add(tr *core.Trace, g graph.View) (sparse, dense time.Duration, edges int64) {
	for _, e := range tr.Entries {
		if e.Dense {
			dense += e.Duration
			a.bytes += csrBytes(g) // a dense round sweeps every row
		} else {
			sparse += e.Duration
			a.bytes += 8*float64(e.FrontierSize) + 4*float64(e.OutDegrees)
		}
		edges += e.OutDegrees
	}
	a.sparse, a.dense, a.edges = a.sparse+sparse, a.dense+dense, a.edges+float64(edges)
	return sparse, dense, edges
}

// emit writes the per-workload core metrics: the share of traced round
// time spent in dense rounds, edges weighed per second of round time, and
// the CSR bytes those rounds touch, computed from array sizes (not
// measured: cache misses are invisible here).
func (a *roundAgg) emit(v map[string]float64) {
	total := (a.sparse + a.dense).Seconds()
	v["core.dense_share"] = ratio(a.dense.Seconds(), total)
	v["core.edges_per_s"] = ratio(a.edges, total)
	v["core.bytes_touched_computed"] = a.bytes
}

// tracedServe is the per-layer pass of a serve-* workload: the same
// window as the untraced pass, with client-side spans recorded for its
// last 70 % (the first 30 % is the untraced reference the overhead is
// measured against), /metrics read before and after, and a sample of the
// traced operations peeled afterwards.
func tracedServe(ctx context.Context, rc runConfig, env *serveEnv, pl *plan, ver *verifier,
	srv *child, cl *client, info server.GraphInfo, genS float64) (outcome, error) {
	tr := newTracer()
	m0, err := cl.metrics()
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	cl.tr, cl.traceFrom = tr, start.Add(time.Duration(0.3*rc.seconds*float64(time.Second)))
	recs := drive(cl, pl, env.clients, rc.seconds)
	elapsed := time.Since(start).Seconds()
	cl.tr = nil
	m1, err := cl.metrics()
	if err != nil {
		return outcome{}, srv.failure(fmt.Sprintf("stopped answering /metrics: %v", err))
	}
	st := digest(recs, ver, elapsed)
	finalCheck(cl, pl, env, ver, &st)
	srv.stop() // the peel below should not share the cores with an idle server's timers

	v := map[string]float64{
		"gen.build_s":     genS,
		"graph.memory_mb": float64(info.MemoryBytes) / (1 << 20),
		"graph.load_ms":   info.LoadMillis,
		"http.status_429": 0, "http.status_504": 0, "http.status_5xx": 0,
	}

	// Wire fields and client-side timings.
	var readMs, plainMs, tracedMs, overheadUs, hitUs, batchedMs, procs, applyMs, ccMs, prdMs []float64
	var batched, size1, reads float64
	for i := range recs {
		rec, rep := &recs[i], st.replies[i]
		switch {
		case rec.status == http.StatusTooManyRequests:
			v["http.status_429"]++
		case rec.status == http.StatusGatewayTimeout:
			v["http.status_504"]++
		case rec.status >= 500:
			v["http.status_5xx"]++
		}
		if !st.good[i] {
			continue
		}
		if rec.req.algo == "" {
			applyMs = append(applyMs, rep.ElapsedMs)
			continue
		}
		reads++
		sendToReply := rec.latencyMs - rec.lagMs
		readMs = append(readMs, rec.latencyMs)
		if rec.span != 0 {
			tracedMs = append(tracedMs, sendToReply)
		} else {
			plainMs = append(plainMs, sendToReply)
		}
		overheadUs = append(overheadUs, (sendToReply-rep.ElapsedMs)*1000)
		if rep.Cached {
			hitUs = append(hitUs, sendToReply*1000)
		}
		if rep.Procs > 0 {
			procs = append(procs, float64(rep.Procs))
		}
		if rep.Batched {
			batched++
			batchedMs = append(batchedMs, rep.ElapsedMs)
			if rep.BatchSize == 1 {
				size1++
			}
		}
		if !rep.Cached && !rep.Coalesced {
			switch rec.req.algo {
			case "components":
				ccMs = append(ccMs, rep.ElapsedMs)
			case "pagerank-delta":
				prdMs = append(prdMs, rep.ElapsedMs)
			}
		}
	}
	v["http.latency_p90_ms"] = percentile(readMs, 90)
	v["http.latency_p99_ms"] = percentile(readMs, 99)
	v["http.generator_lag_p95_ms"] = percentile(st.lagMs, 95)
	v["server.overhead_p50_us"] = median(overheadUs)
	v["engine.hit_latency_p50_us"] = median(hitUs)
	v["engine.procs_mean"] = ratio(sum(procs), float64(len(procs)))
	v["batch.batched_share"] = ratio(batched, reads)
	v["batch.size1_share"] = ratio(size1, batched)
	v["batch.exec_p50_ms"] = median(batchedMs)
	v["delta.update_p50_ms"] = median(st.updateMs)
	v["delta.update_p95_ms"] = percentile(st.updateMs, 95)
	v["delta.apply_elapsed_p50_ms"] = median(applyMs)
	v["delta.cc_query_p50_ms"] = median(ccMs)
	v["delta.pagerank_delta_query_p50_ms"] = median(prdMs)
	v["trace.overhead_share"] = ratio(median(tracedMs)-median(plainMs), median(plainMs))

	// Counter differences over the window, from the server's own /metrics.
	var timeouts, panics float64
	for name, a := range m1.Algos {
		timeouts += float64(a.Timeouts - m0.Algos[name].Timeouts)
		panics += float64(a.Panics - m0.Algos[name].Panics)
	}
	admitted := float64(m1.Admitted - m0.Admitted)
	shed := float64(m1.Resilience.Shed - m0.Resilience.Shed)
	hits := float64(m1.Query.Cache.Hits - m0.Query.Cache.Hits)
	misses := float64(m1.Query.Cache.Misses - m0.Query.Cache.Misses)
	trav := m1.Traversal.Sub(m0.Traversal)
	sched := m1.Scheduler.Sub(m0.Scheduler)
	batches := float64(m1.Batch.BatchesRun - m0.Batch.BatchesRun)
	upBatches := float64(m1.Updates.Batches - m0.Updates.Batches)
	incr := float64(m1.Updates.IncrementalRuns - m0.Updates.IncrementalRuns)
	full := float64(m1.Updates.FullRuns - m0.Updates.FullRuns)
	v["server.admitted"] = admitted
	v["server.rejected_429"] = float64(m1.Rejected429 - m0.Rejected429)
	v["server.timeouts"] = timeouts
	v["server.panics"] = panics
	v["resilience.shed_total"] = shed
	v["resilience.shed_share"] = ratio(shed, admitted+shed)
	v["resilience.breaker_opens"] = float64(m1.Resilience.BreakerOpen - m0.Resilience.BreakerOpen)
	v["resilience.watchdog_trips"] = float64(m1.Resilience.WatchdogTrips - m0.Resilience.WatchdogTrips)
	v["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["engine.executions"] = float64(m1.Query.Executions - m0.Query.Executions)
	v["engine.coalesced"] = float64(m1.Query.Coalesced - m0.Query.Coalesced)
	v["engine.cache_evictions"] = float64(m1.Query.Cache.Evictions - m0.Query.Cache.Evictions)
	v["engine.cache_bytes"] = float64(m1.Query.Cache.Bytes)
	v["batch.batches_run"] = batches
	v["batch.mean_batch_size"] = ratio(float64(m1.Batch.QueriesBatched-m0.Batch.QueriesBatched), batches)
	v["batch.window_waits"] = float64(m1.Batch.WindowWaits - m0.Batch.WindowWaits)
	v["core.seq_rounds"] = float64(trav.SeqRounds)
	v["core.edges_scanned_per_query"] = ratio(float64(trav.EdgesScanned), reads)
	v["parallel.pool_workers"] = float64(sched.PoolWorkers)
	v["parallel.dispatches"] = float64(sched.Dispatches)
	v["parallel.inline_runs"] = float64(sched.InlineRuns)
	v["parallel.wakes"] = float64(sched.Wakes)
	v["parallel.dispatch_per_round"] = ratio(float64(sched.Dispatches), float64(trav.Calls))
	v["delta.batches"] = upBatches
	v["delta.requests_per_batch"] = ratio(float64(m1.Updates.Requests-m0.Updates.Requests), upBatches)
	v["delta.compactions"] = float64(m1.Updates.Compactions - m0.Updates.Compactions)
	v["delta.incremental_share"] = ratio(incr, incr+full)
	v["delta.rejected_busy"] = float64(m1.Updates.Rejected - m0.Updates.Rejected)
	if v["resilience.watchdog_trips"] != 0 {
		ver.f.addf("watchdog tripped: a query ran past its deadline")
	}

	// The peel: sampled operations, one layer down at a time.
	var agg roundAgg
	ops, err := peel(ctx, tr, env.g, recs, st.replies, st.good, &agg)
	if err != nil {
		return outcome{}, err
	}
	agg.emit(v)
	var stackUs, handlerUs, missMs, bareBFS, batchedBFS []float64
	for _, p := range ops {
		stackUs = append(stackUs, (p.roundtrip-p.handler)*1000)
		handlerUs = append(handlerUs, p.handler*1000)
		if p.miss {
			missMs = append(missMs, p.handler-p.run)
		}
		if p.algo == "bfs" && p.miss {
			bareBFS = append(bareBFS, p.run)
		}
	}
	for i := range recs {
		if recs[i].span != 0 && st.good[i] && recs[i].req.algo == "bfs" && st.replies[i].Batched {
			batchedBFS = append(batchedBFS, st.replies[i].ElapsedMs)
		}
	}
	v["http.stack_p50_us"] = median(stackUs)
	v["server.handler_p50_us"] = median(handlerUs)
	v["server.stack_miss_p50_ms"] = median(missMs)
	v["batch.slowdown_vs_single"] = ratio(median(batchedBFS), median(bareBFS))
	notes := ver.f.notes
	if len(bareBFS) > 0 {
		notes = append(notes, fmt.Sprintf("batch.slowdown_vs_single = %.3f ms batched bfs elapsed_ms (median of %d) / %.3f ms bare bfs runner (median of %d sampled sources)",
			median(batchedBFS), len(batchedBFS), median(bareBFS), len(bareBFS)))
	}
	if err := tr.write(rc.root, rc.workload); err != nil {
		return outcome{}, err
	}
	return outcome{values: v, attempted: st.attempted, failed: ver.f.n, samples: len(readMs),
		requestHash: pl.hash(), notes: notes}, nil
}
