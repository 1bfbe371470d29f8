package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
	"ligra/internal/server"
)

// graphName is the name the hosted graph is registered under.
const graphName = "g"

// request is one generated operation: a query or an update batch.
type request struct {
	algo      string // "" for an update
	source    uint32
	target    uint32   // reach
	landmarks []uint32 // landmarks
	hot       bool     // drawn from a fixed key set, so a repeat can hit the result cache
	ops       int      // update: undirected edge ops in the batch, all effective
	path      string
	body      []byte
	due       time.Duration // open loop: offset from the window's start
}

// record is what came back for one request.
type record struct {
	req       *request
	start     time.Time // when it was sent (closed loop) or due (open loop)
	end       time.Time
	lagMs     float64 // open loop: how late the generator sent it
	status    int     // 0 on a transport error
	body      []byte  // parsed after the window, outside the timed region
	err       error
	latencyMs float64
	span      int // the http.roundtrip span, when this request was traced
}

// wireReply is the part of a query or update reply the benchmark reads.
// These fields are docs/SERVING.md's wire contract.
type wireReply struct {
	Details   map[string]any `json:"details"`
	ElapsedMs float64        `json:"elapsed_ms"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced"`
	Batched   bool           `json:"batched"`
	BatchSize int            `json:"batch_size"`
	Procs     int            `json:"procs"`
	// update replies
	Version         uint64 `json:"version"`
	Inserted        int64  `json:"inserted"`
	Deleted         int64  `json:"deleted"`
	Ignored         int64  `json:"ignored"`
	RequestsBatched int    `json:"requests_batched"`
	Compacted       bool   `json:"compacted"`
}

// plan is a workload's generated input: everything the server will be
// sent, fixed by the seed before the server is started.
type plan struct {
	// warm stages are issued before the window and count towards setup_s.
	// Requests of one stage are shared among the clients; stages run in
	// order.
	warm [][]*request
	// clients holds one request sequence per closed-loop client.
	clients [][]*request
	// reads and updates are the open-loop schedule, ordered by due time;
	// updates go out on one writer stream.
	reads, updates []*request
	// ledger is the reference edge set after every planned update.
	ledger *edgeLedger
}

// serveEnv is what a workload plans against.
type serveEnv struct {
	rc      runConfig
	g       *graph.Graph // the checker's copy of the hosted graph
	oracle  *compOracle
	rng     *rand.Rand
	clients int // C = nproc closed-loop clients
}

// planFunc generates a serving workload's input from the seed.
type planFunc func(e *serveEnv) *plan

func queryRequest(algo string, source uint32, extra map[string]any) *request {
	m := map[string]any{"algo": algo, "source": source}
	for k, v := range extra {
		m[k] = v
	}
	body, _ := json.Marshal(m)
	return &request{algo: algo, source: source, path: "/v1/graphs/" + graphName + "/query", body: body}
}

func (p *plan) hash() string {
	h := sha256.New()
	add := func(rs []*request) {
		for _, r := range rs {
			fmt.Fprintf(h, "%s %d ", r.path, r.due)
			h.Write(r.body)
		}
	}
	for _, s := range p.warm {
		add(s)
	}
	for _, c := range p.clients {
		add(c)
	}
	add(p.reads)
	add(p.updates)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// client is the load generator's HTTP side: one connection pool, sized so
// that in an open loop a backlog forms in the server, where the shedder
// sees it, and not in the generator.
type client struct {
	http *http.Client
	base string
	// When tr is set, every request starting at or after traceFrom gets
	// an http.roundtrip span.
	tr        *tracer
	traceFrom time.Time
	ops       atomic.Int64
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
	}}}
}

func (c *client) do(req *request, start time.Time) record {
	rec := record{req: req, start: start}
	sent := time.Now()
	resp, err := c.http.Post(c.base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		rec.err, rec.end = err, time.Now()
	} else {
		rec.body, rec.err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.end, rec.status = time.Now(), resp.StatusCode
	}
	rec.latencyMs = ms(rec.end.Sub(start))
	if c.tr != nil && !start.Before(c.traceFrom) {
		rec.span = c.tr.add("http.roundtrip", sent, rec.end, 0, int(c.ops.Add(1)), map[string]any{"algo": req.algo, "status": rec.status})
	}
	return rec
}

func (c *client) metrics() (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// loadGraph registers the hosted graph through the public load endpoint
// with a generator spec; nothing is read from disk.
func (c *client) loadGraph(scale int, seed uint64) (server.GraphInfo, error) {
	var info server.GraphInfo
	body, _ := json.Marshal(map[string]any{"gen": "rmat", "scale": scale, "seed": seed})
	resp, err := c.http.Post(c.base+"/v1/graphs/"+graphName, "application/json", bytes.NewReader(body))
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return info, fmt.Errorf("loading graph: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// shareOut has n goroutines take requests from rs until none are left.
func (c *client) shareOut(rs []*request, n int) []record {
	recs := make([]record, len(rs))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(rs) {
					return
				}
				recs[i] = c.do(rs[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop drives one sequence per client: each sends its next request
// only when the previous reply is in, until the window closes.
func (c *client) closedLoop(seqs [][]*request, window time.Duration) []record {
	deadline := time.Now().Add(window)
	per := make([][]record, len(seqs))
	var wg sync.WaitGroup
	for i := range seqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				per[i] = append(per[i], c.do(seqs[i][k%len(seqs[i])], time.Now()))
			}
		}(i)
	}
	wg.Wait()
	var all []record
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// openLoop sends every scheduled request at its due time whether or not
// earlier ones have been answered. Reads are handed to a fixed pool of
// senders; updates go out in order on one writer stream. Latency runs
// from the due time, so a stall is charged to every request it delays.
func (c *client) openLoop(reads, updates []*request, senders int) []record {
	t0 := time.Now()
	var mu sync.Mutex
	var all []record
	send := func(r *request) {
		due := t0.Add(r.due)
		sent := time.Now()
		rec := c.do(r, due)
		rec.lagMs = ms(sent.Sub(due))
		mu.Lock()
		all = append(all, rec)
		mu.Unlock()
	}
	jobs := make(chan *request)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				send(r)
			}
		}()
	}
	wg.Add(1)
	go func() { // the writer stream
		defer wg.Done()
		for _, r := range updates {
			time.Sleep(time.Until(t0.Add(r.due)))
			send(r)
		}
	}()
	for _, r := range reads {
		time.Sleep(time.Until(t0.Add(r.due)))
		jobs <- r // blocks while every sender is busy: that wait is generator lag
	}
	close(jobs)
	wg.Wait()
	return all
}

// verifier holds replies against the oracle after the window.
type verifier struct {
	oracle *compOracle
	f      failures
	// bfsRounds[source] is the sequential BFS depth (the rounds a bfs
	// reply must report) for the hot keys given a whole-traversal check.
	bfsRounds map[uint32]int
	kcore     float64 // the degeneracy every kcore reply must agree on
	lastVer   uint64  // the writer stream's last acknowledged version
}

// check parses one reply and reports whether it is a correct 2xx answer.
func (v *verifier) check(rec *record) (wireReply, bool) {
	var rep wireReply
	r := rec.req
	what := r.algo
	if what == "" {
		what = "update"
	}
	if rec.err != nil {
		v.f.addf("%s: transport: %v", what, rec.err)
		return rep, false
	}
	if rec.status != http.StatusOK {
		v.f.addf("%s: HTTP %d: %s", what, rec.status, bytes.TrimSpace(rec.body))
		return rep, false
	}
	if err := json.Unmarshal(rec.body, &rep); err != nil {
		v.f.addf("%s: unreadable reply: %v", what, err)
		return rep, false
	}
	d := rep.Details
	bad := func(format string, args ...any) (wireReply, bool) {
		v.f.addf(format, args...)
		return rep, false
	}
	switch r.algo {
	case "":
		// All planned ops are effective and undirected; one writer, so
		// versions must strictly increase.
		if rep.Inserted+rep.Deleted != 2*int64(r.ops) || rep.Ignored != 0 {
			return bad("update of %d ops: inserted %d deleted %d ignored %d", r.ops, rep.Inserted, rep.Deleted, rep.Ignored)
		}
		if rep.Version <= v.lastVer {
			return bad("update acknowledged version %d after %d", rep.Version, v.lastVer)
		}
		v.lastVer = rep.Version
	case "bfs":
		if want := v.oracle.sizeOf(r.source); int(detailNum(d, "visited")) != want {
			return bad("bfs from %d visited %v, its component has %d vertices", r.source, d["visited"], want)
		}
		if want, ok := v.bfsRounds[r.source]; ok && int(detailNum(d, "rounds")) != want {
			return bad("bfs from %d took %v rounds, sequential BFS says %d", r.source, d["rounds"], want)
		}
	case "reach":
		if got, _ := d["reachable"].(bool); got != v.oracle.same(r.source, r.target) {
			return bad("reach %d -> %d answered %v", r.source, r.target, d["reachable"])
		}
	case "landmarks":
		dists, _ := d["distances"].([]any)
		if len(dists) != len(r.landmarks) {
			return bad("landmarks from %d: %d distances for %d landmarks", r.source, len(dists), len(r.landmarks))
		}
		for i, l := range r.landmarks {
			if dist, _ := dists[i].(float64); (dist >= 0) != v.oracle.same(r.source, l) {
				return bad("landmarks from %d: distance %v to %d", r.source, dists[i], l)
			}
		}
	case "components":
		if int(detailNum(d, "components")) != v.oracle.count {
			return bad("components found %v, sequential union-find found %d", d["components"], v.oracle.count)
		}
	case "pagerank":
		if !(detailNum(d, "iterations") >= 1) || !(detailNum(d, "l1_change") < 1e-7) {
			return bad("pagerank stopped after %v iterations at L1 change %v", d["iterations"], d["l1_change"])
		}
	case "pagerank-delta":
		if l1 := detailNum(d, "l1_change"); !(l1 >= 0) || math.IsInf(l1, 0) {
			return bad("pagerank-delta reported L1 change %v", d["l1_change"])
		}
	case "kcore":
		k := detailNum(d, "degeneracy")
		if v.kcore == 0 {
			v.kcore = k
		}
		if !(k >= 1) || k != v.kcore {
			return bad("kcore degeneracy %v, earlier replies said %v", d["degeneracy"], v.kcore)
		}
	case "local-cluster":
		if c := detailNum(d, "conductance"); !(detailNum(d, "cluster_size") >= 1) || !(c >= 0 && c <= 1) {
			return bad("local-cluster around %d: size %v conductance %v", r.source, d["cluster_size"], d["conductance"])
		}
	}
	return rep, true
}

// setupServer brings a server to the state the window starts from: up,
// graph loaded, warm-up issued. It returns the child and the load reply.
func setupServer(rc runConfig, pl *plan, clients int) (*child, *client, server.GraphInfo, []record, error) {
	srv, err := startServer(rc.bins.serve, rc.root)
	if err != nil {
		return nil, nil, server.GraphInfo{}, nil, err
	}
	cl := newClient(srv.base, 4*runtime.NumCPU())
	info, err := cl.loadGraph(rc.sz.serveScale, graphSeed)
	if err != nil {
		srv.stop()
		return nil, nil, info, nil, err
	}
	var warm []record
	for _, stage := range pl.warm {
		warm = append(warm, cl.shareOut(stage, clients)...)
	}
	return srv, cl, info, warm, nil
}

func runServe(ctx context.Context, rc runConfig, makePlan planFunc) (outcome, error) {
	// The checker's preparation: the same generator call the server's
	// load handler makes for {"gen":"rmat"}, one sequential components
	// pass, and the seed's request list.
	genStart := time.Now()
	g, err := gen.RMAT(rc.sz.serveScale, 16, gen.PBBSRMAT, graphSeed)
	if err != nil {
		return outcome{}, err
	}
	genS := time.Since(genStart).Seconds()
	env := &serveEnv{rc: rc, g: g, oracle: newCompOracle(g),
		rng: rand.New(rand.NewSource(int64(rc.seed))), clients: runtime.NumCPU()}
	pl := makePlan(env)
	ver := &verifier{oracle: env.oracle, bfsRounds: map[uint32]int{}}
	for _, stage := range pl.warm {
		for _, r := range stage {
			if r.algo == "bfs" && r.hot && len(ver.bfsRounds) < 8 {
				depth := int32(0)
				for _, l := range seq.BFSLevels(g, r.source) {
					if l > depth {
						depth = l
					}
				}
				ver.bfsRounds[r.source] = int(depth)
			}
		}
	}

	// Set-up, repeated so its cost is a median; the last server stays.
	reps := rc.sz.setupReps
	if rc.traced {
		reps = 1
	}
	var srv *child
	var cl *client
	var info server.GraphInfo
	var warm []record
	var setupS []float64
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		if srv, cl, info, warm, err = setupServer(rc, pl, env.clients); err != nil {
			return outcome{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer srv.stop()
	if info.Vertices != g.NumVertices() || info.Edges != g.NumEdges() {
		return outcome{}, fmt.Errorf("server loaded n=%d m=%d, the checker generated n=%d m=%d: the two generator calls have drifted",
			info.Vertices, info.Edges, g.NumVertices(), g.NumEdges())
	}
	for i := range warm {
		if _, ok := ver.check(&warm[i]); !ok {
			return outcome{}, fmt.Errorf("warm-up failed: %s", ver.f.notes[0])
		}
	}

	if rc.traced {
		return tracedServe(ctx, rc, env, pl, ver, srv, cl, info, genS)
	}

	m0, err := cl.metrics()
	if err != nil {
		return outcome{}, err
	}
	cpu0 := procCPU(srv.cmd.Process.Pid)
	start := time.Now()
	recs := drive(cl, pl, env.clients, rc.seconds)
	elapsed := time.Since(start).Seconds()
	cpuMs := (procCPU(srv.cmd.Process.Pid) - cpu0).Seconds() * 1000
	m1, err := cl.metrics()
	if err != nil {
		return outcome{}, srv.failure(fmt.Sprintf("stopped answering /metrics: %v", err))
	}
	rss := procStatusMB(srv.cmd.Process.Pid, "VmHWM") // read just before SIGTERM

	st := digest(recs, ver, elapsed)
	finalCheck(cl, pl, env, ver, &st)
	if trips := m1.Resilience.WatchdogTrips - m0.Resilience.WatchdogTrips; trips != 0 {
		ver.f.addf("watchdog tripped %d times: a query ran past its deadline", trips)
	}
	return outcome{
		values: map[string]float64{
			"throughput_ops_s": float64(st.ok) / elapsed,
			"latency_p50_ms":   median(st.readMs),
			"cpu_ms_per_op":    ratio(cpuMs, float64(st.ok)),
			"peak_rss_mb":      rss,
			"setup_s":          median(setupS),
		},
		attempted: st.attempted, failed: ver.f.n, samples: len(st.readMs),
		requestHash: pl.hash(), notes: ver.f.notes,
	}, nil
}

// drive runs the plan's timed part: closed loop when the plan has client
// sequences, open loop when it has a schedule.
func drive(cl *client, pl *plan, clients int, seconds float64) []record {
	if len(pl.clients) > 0 {
		return cl.closedLoop(pl.clients, time.Duration(seconds*float64(time.Second)))
	}
	return cl.openLoop(pl.reads, pl.updates, 4*runtime.NumCPU())
}

// digested is the window's records after verification.
type digested struct {
	attempted, ok int
	readMs        []float64 // one latency per attempted read; a failed read counts as the whole window
	updateMs      []float64 // round trips of correct updates
	lagMs         []float64
	replies       []wireReply // parallel to recs; zero value for failed ones
	good          []bool
}

func digest(recs []record, ver *verifier, elapsedS float64) digested {
	// The writer stream's replies must be checked in the order they were
	// sent for the version-monotonicity check; reads are order-free.
	st := digested{attempted: len(recs), replies: make([]wireReply, len(recs)), good: make([]bool, len(recs))}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return recs[order[a]].start.Before(recs[order[b]].start) })
	for _, i := range order {
		rec := &recs[i]
		rep, ok := ver.check(rec)
		st.replies[i], st.good[i] = rep, ok
		if ok {
			st.ok++
		}
		st.lagMs = append(st.lagMs, rec.lagMs)
		switch {
		case rec.req.algo == "" && ok:
			st.updateMs = append(st.updateMs, rec.latencyMs)
		case rec.req.algo != "" && ok:
			st.readMs = append(st.readMs, rec.latencyMs)
		case rec.req.algo != "":
			st.readMs = append(st.readMs, elapsedS*1000) // a failed op misses any latency figure
		}
	}
	return st
}

// finalCheck looks at the server's state after the window. With an update
// stream, every acknowledged batch must be visible: the edge count must
// equal the naive ledger's, and components plus three fresh traversals
// must still agree with the oracle on the final snapshot.
func finalCheck(cl *client, pl *plan, env *serveEnv, ver *verifier, st *digested) {
	if pl.ledger == nil {
		return
	}
	snap, err := cl.metrics()
	if err != nil || len(snap.Graphs) != 1 {
		ver.f.addf("final check: /metrics unreadable: %v", err)
		return
	}
	if got, want := snap.Graphs[0].Edges, pl.ledger.directedEdges(); got != want {
		ver.f.addf("final snapshot has %d edges, replaying the acknowledged updates gives %d", got, want)
	}
	final := []*request{queryRequest("components", 0, nil)}
	for i := 0; i < 3; i++ {
		final = append(final, queryRequest("bfs", env.oracle.giant[env.rng.Intn(len(env.oracle.giant))], nil))
	}
	for _, rec := range cl.shareOut(final, 1) {
		st.attempted++
		if _, ok := ver.check(&rec); ok {
			st.ok++
		}
	}
}
