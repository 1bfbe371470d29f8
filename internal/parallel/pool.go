package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"ligra/internal/faultinject"
)

// Persistent fork-join scheduler.
//
// Ligra's original runtime (Cilk) reuses a persistent worker gang for
// every parallel_for; the first versions of this package instead spawned
// a fresh `go func` + WaitGroup gang on every primitive call. Iterative
// graph algorithms pay that per round — BFS on a high-diameter grid runs
// hundreds of edgeMap rounds, BellmanFord/KCore thousands — so the
// spawn/join cost lands exactly where the frontiers are smallest.
//
// This file replaces per-call spawning with a process-wide pool of
// long-lived workers, each parked on a channel receive (a lightweight
// wake signal; no busy-spin). A primitive call packages its chunk-
// claiming loop as a job, enqueues one claimable token per helper it
// wants, and then runs the same loop itself as worker 0. Pool workers
// that pick a token up join the job; when the caller finishes its own
// loop it revokes any tokens that were never claimed (compare-and-swap
// pending → cancelled), so it only waits for workers that are actively
// helping. That revocation is what makes nested parallelism deadlock-
// free: a pool worker whose job body issues another parallel call makes
// progress on the inner loop itself even if every other worker is busy.
//
// Contracts are unchanged from the spawning implementation: chunk-
// granularity ctx cancellation, *PanicError containment per job,
// deterministic chunk indices for order-preserving reassembly, and
// per-ctx proc leases (WithProcs/CtxProcs) acting as per-call caps on
// how many tokens a job enqueues — never a global setting.
//
// On top of the pool sits a sequential cutoff (see seqCutoff): auto-
// grain loops too small to amortise even one park/wake run inline on
// the calling goroutine with zero dispatch.

// seqCutoff is the iteration count at or below which an auto-grain loop
// runs inline on the calling goroutine, as one chunk, instead of
// dispatching to the pool. It applies only when the caller did not choose
// a grain: an explicit grain is a statement that iterations are coarse
// (block loops in scan/filter/reduce process thousands of elements per
// "iteration"), so those always dispatch. 512 one-word iterations cost well under the
// ~1–2µs of a park/wake round trip, and — under a cancellable ctx — well
// under the ctx check and yield a chunk boundary would add.
const seqCutoff = 512

// maxPoolWorkers bounds the pool size however large GOMAXPROCS is set.
const maxPoolWorkers = 256

// tokenQueueCap sizes the pool's token queue. Submission never blocks:
// if the queue is full every worker is already saturated and the caller
// simply keeps the work (it runs the chunk loop itself regardless).
const tokenQueueCap = 1024

// Token states. A token starts pending; the first CAS wins it: a pool
// worker claims it (and must then call wg.Done when it leaves the job),
// or the finished caller cancels it (and calls wg.Done on the worker's
// behalf, since no worker will).
const (
	tokenPending int32 = iota
	tokenClaimed
	tokenCancelled
)

// token is one invitation for a pool worker to join a job.
type token struct {
	state atomic.Int32
	j     *job
}

// job is one dispatched parallel call: the chunk-claiming loop shared by
// the caller (worker slot 0) and any pool workers that claim a token.
type job struct {
	n, grain, chunks int
	ctx              context.Context // nil unless cancellable: run skips its checks
	yield            bool
	body             func(worker, chunk, lo, hi int)
	next             atomic.Int64 // shared chunk-claim counter
	slots            atomic.Int64 // worker-slot allocator; caller holds 0
	maxSlots         int
	box              panicBox
	wg               sync.WaitGroup
}

// run executes the chunk-claiming loop as worker slot w. It is the same
// loop the spawning implementation inlined into each goroutine (runInline
// is its form for a caller alone): stop on a sibling's panic, observe ctx
// at chunk granularity (yielding first on single-P runtimes so the
// cancelling goroutine can run), claim the next chunk, fire the
// fault-injection hook, call the body.
func (j *job) run(w int) {
	defer j.box.capture()
	for {
		if j.box.stopped.Load() {
			return
		}
		if j.ctx != nil {
			if j.yield {
				runtime.Gosched()
			}
			if j.ctx.Err() != nil {
				return
			}
		}
		c := int(j.next.Add(1) - 1)
		if c >= j.chunks {
			return
		}
		faultinject.OnChunk()
		lo := c * j.grain
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		j.body(w, c, lo, hi)
	}
}

// schedCounters is the process-wide scheduler instrumentation. All
// fields are monotonic; SchedulerSnapshot copies them and Sub produces
// per-interval deltas.
type schedCounters struct {
	dispatches atomic.Int64 // parallel calls handed to the pool
	inlineRuns atomic.Int64 // calls run on the caller (procs==1, one chunk, or cutoff)
	cutoffRuns atomic.Int64 // subset of inlineRuns taken by the sequential cutoff
	parks      atomic.Int64 // times a worker found the queue empty and blocked
	wakes      atomic.Int64 // tokens received by pool workers
	spawned    atomic.Int64 // workers ever created (stable after warm-up)
}

var schedStats schedCounters

// SchedulerStats is a point-in-time copy of the pool's counters, the
// scheduler analogue of core's traversal stats. All counts are since
// process start (or the last ResetSchedulerStats); PoolWorkers is the
// current pool size, not a delta.
type SchedulerStats struct {
	// PoolWorkers is the number of persistent workers currently alive.
	// The pool grows lazily to demand and never shrinks or respawns, so
	// after warm-up this is stable; the leak test pins it.
	PoolWorkers int64 `json:"pool_workers"`
	// Dispatches counts parallel calls that enqueued work on the pool.
	Dispatches int64 `json:"dispatches"`
	// InlineRuns counts parallel calls that ran entirely on the calling
	// goroutine: procs==1, a single chunk, or the sequential cutoff.
	InlineRuns int64 `json:"inline_runs"`
	// CutoffRuns is the subset of InlineRuns where the sequential cutoff
	// made the decision (the call would otherwise have dispatched).
	CutoffRuns int64 `json:"cutoff_runs"`
	// Parks counts workers blocking on an empty queue; Wakes counts
	// tokens received. Wakes far above Dispatches means fan-out is wide;
	// Parks near Wakes means workers sleep between rounds (no busy-spin).
	Parks int64 `json:"parks"`
	Wakes int64 `json:"wakes"`
}

// SchedulerSnapshot returns the current scheduler counters. Safe for
// concurrent use; pair two snapshots with Sub for an interval.
func SchedulerSnapshot() SchedulerStats {
	return SchedulerStats{
		PoolWorkers: schedStats.spawned.Load(),
		Dispatches:  schedStats.dispatches.Load(),
		InlineRuns:  schedStats.inlineRuns.Load(),
		CutoffRuns:  schedStats.cutoffRuns.Load(),
		Parks:       schedStats.parks.Load(),
		Wakes:       schedStats.wakes.Load(),
	}
}

// ResetSchedulerStats zeroes the dispatch/inline/park/wake counters.
// PoolWorkers is a gauge of live workers and is left untouched.
func ResetSchedulerStats() {
	schedStats.dispatches.Store(0)
	schedStats.inlineRuns.Store(0)
	schedStats.cutoffRuns.Store(0)
	schedStats.parks.Store(0)
	schedStats.wakes.Store(0)
}

// Sub returns s - prev for the monotonic counters, for interval deltas.
// PoolWorkers is carried over from s (it is a gauge).
func (s SchedulerStats) Sub(prev SchedulerStats) SchedulerStats {
	return SchedulerStats{
		PoolWorkers: s.PoolWorkers,
		Dispatches:  s.Dispatches - prev.Dispatches,
		InlineRuns:  s.InlineRuns - prev.InlineRuns,
		CutoffRuns:  s.CutoffRuns - prev.CutoffRuns,
		Parks:       s.Parks - prev.Parks,
		Wakes:       s.Wakes - prev.Wakes,
	}
}

// pool is the process-wide worker set. Workers are created lazily as
// dispatch demand grows and then live for the life of the process,
// parked on the token channel when idle.
type pool struct {
	tokens chan *token
	size   atomic.Int64
	mu     sync.Mutex // serialises growth
}

var (
	thePool  *pool
	poolOnce sync.Once
)

func getPool() *pool {
	poolOnce.Do(func() {
		thePool = &pool{tokens: make(chan *token, tokenQueueCap)}
	})
	return thePool
}

// ensure grows the pool to at least `want` workers (capped). The common
// case — pool already warm — is a single atomic load.
func (p *pool) ensure(want int) {
	if want > maxPoolWorkers {
		want = maxPoolWorkers
	}
	if int(p.size.Load()) >= want {
		return
	}
	p.mu.Lock()
	for int(p.size.Load()) < want {
		go p.worker()
		p.size.Add(1)
		schedStats.spawned.Add(1)
	}
	p.mu.Unlock()
}

// worker is one persistent pool goroutine: receive a token (parking on
// the channel when the queue is empty), try to claim it, and if the
// claim wins run the job's chunk loop under a freshly allocated worker
// slot. Claimed-token bookkeeping (wg.Done) happens here; a token lost
// to caller revocation is simply dropped. body panics are contained by
// job.run, so a worker survives every job it touches.
func (p *pool) worker() {
	for {
		var t *token
		select {
		case t = <-p.tokens:
		default:
			schedStats.parks.Add(1)
			t = <-p.tokens
		}
		schedStats.wakes.Add(1)
		if !t.state.CompareAndSwap(tokenPending, tokenClaimed) {
			continue // revoked by a caller that already finished
		}
		j := t.j
		if w := int(j.slots.Add(1)); w < j.maxSlots {
			j.run(w)
		}
		j.wg.Done()
	}
}

// runParallel executes the chunk-claiming loop for [0, n) across at most
// `procs` workers drawn from the persistent pool, with the caller always
// participating as worker slot 0. It is the single dispatch path behind
// every parallel primitive; ForWorkerChunks has already decided against
// running inline (procs > 1 and chunks > 1 and above the cutoff).
func runParallel(ctx context.Context, n, grain, chunks, procs int, body func(worker, chunk, lo, hi int)) error {
	workers := procs
	if workers > chunks {
		workers = chunks
	}
	if workers > maxPoolWorkers+1 {
		workers = maxPoolWorkers + 1
	}
	j := &job{n: n, grain: grain, chunks: chunks, body: body, maxSlots: workers}
	if cancellable(ctx) {
		j.ctx = ctx
		j.yield = runtime.GOMAXPROCS(0) == 1
	}
	p := getPool()
	p.ensure(workers - 1)
	schedStats.dispatches.Add(1)

	// Invite workers-1 helpers. Each successfully queued token adds one
	// wg count, paid back either by the claiming worker or by our own
	// revocation below. A full queue means every worker is saturated;
	// dropping the invitation is safe because we run the loop ourselves.
	toks := make([]*token, 0, workers-1)
	for i := 0; i < workers-1; i++ {
		t := &token{j: j}
		j.wg.Add(1)
		select {
		case p.tokens <- t:
			toks = append(toks, t)
		default:
			j.wg.Done()
		}
	}

	j.run(0)

	// Revoke invitations nobody picked up, so we only wait for workers
	// actively inside j.run. This keeps nested parallel calls deadlock-
	// free and makes tiny-but-dispatched rounds cheap when the pool is
	// busy elsewhere.
	for _, t := range toks {
		if t.state.CompareAndSwap(tokenPending, tokenCancelled) {
			j.wg.Done()
		}
	}
	j.wg.Wait()

	if j.box.err != nil {
		return j.box.err
	}
	return CtxErr(j.ctx)
}
