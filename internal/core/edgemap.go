package core

import (
	"context"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ligra/internal/bitset"
	"ligra/internal/faultinject"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// EdgeFuncs bundles the per-edge application logic passed to EdgeMap,
// corresponding to Ligra's F (update / updateAtomic) and C (cond):
//
//   - UpdateAtomic(s, d, w) is applied to edge (s, d) when multiple sources
//     may update the same destination concurrently (sparse push and dense-
//     forward traversals). It must use atomic primitives and return true if
//     d should join the output frontier. Exactly-once membership is the
//     application's responsibility (a CAS claim, or the one priority update
//     that moves d off the value it began the round with); otherwise set
//     RemoveDuplicates.
//   - Update(s, d, w) is the cheaper non-atomic variant used by dense
//     (pull) traversals, where the framework guarantees a single writer per
//     destination. If nil, UpdateAtomic is used everywhere.
//   - Cond(d) gates destinations: edges into d with Cond(d) false are
//     skipped, and a dense traversal stops scanning d's in-edges as soon as
//     Cond(d) turns false (Ligra's early exit). Nil means "always true".
//   - PullRows(lo, offs, srcs, wts, frontier), optional, replaces the
//     per-edge Update/Cond calls of a dense (pull) round with one call per
//     block of consecutive destinations — the Go spelling of what C++
//     templates inline into Ligra's edgeMapDense. Destination lo+i's
//     in-row is srcs[offs[i]:offs[i+1]], for i < len(offs)-1, with wts
//     sliced the same way (nil: every weight is 1); frontier is the
//     frontier's bitset words, or nil when every vertex is a member (see
//     InFrontier). The kernel returns the output word: bit i set if lo+i
//     joins the output, every bit from len(offs)-1 up clear. Where a
//     block's rows lie in a CSR's arrays — a raw *graph.Graph, or the
//     rows an overlay over one did not replace — the driver hands them
//     over straight from those arrays, up to 64 destinations (one output
//     word) per call, and calls no Cond, so the kernel tests its own
//     condition inline. Every other row comes in a block of one, after
//     Cond held. Each destination is handed to one goroutine, so its
//     state needs no atomics; the kernel owns its loops — register
//     accumulators, mid-row exits. It is the algorithm's pull
//     implementation as UpdateAtomic is its push. Under DenseEarlyExit a
//     row of a view with no CSR to read in place may come in two
//     consecutive calls, a short prefix and then, only if that call
//     returned 0 and Cond still holds, the rest (see edgeMapDense).
//     DESIGN.md §5a has the full contract.
//
// For unweighted graphs w is 1.
type EdgeFuncs struct {
	Update       func(s, d uint32, w int32) bool
	UpdateAtomic func(s, d uint32, w int32) bool
	Cond         func(d uint32) bool
	PullRows     func(lo uint32, offs []int64, srcs []uint32, wts []int32, frontier []uint64) uint64
}

// pushUpdate is the update function of the push traversals.
func (f EdgeFuncs) pushUpdate() func(s, d uint32, w int32) bool {
	if f.UpdateAtomic != nil {
		return f.UpdateAtomic
	}
	return f.Update
}

// Mode is a round's traversal: Auto lets the cost rule pick one per
// round (see chooseRound); the other three force it for every round.
type Mode int

const (
	// Auto picks Sparse, Pull or Forward per round by cost.
	Auto Mode = iota
	// Sparse pushes over the out-edges of the frontier's ID array.
	Sparse
	// Pull reads every vertex's in-row (Ligra's read-based dense
	// traversal).
	Pull
	// Forward pushes over the out-edges of the frontier's bitset words
	// (Ligra's write-based dense traversal).
	Forward
)

// modeNames are the modes' wire names, in Mode order.
var modeNames = [...]string{"auto", "sparse", "dense", "dense-forward"}

// String returns the mode's wire name: auto, sparse, dense (Pull) or
// dense-forward (Forward).
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return "Mode(" + strconv.Itoa(int(m)) + ")"
	}
	return modeNames[m]
}

// Options tunes a single EdgeMap call.
type Options struct {
	// Mode is Auto (default) or the traversal every round is forced to.
	Mode Mode
	// Threshold overrides the dense-switch threshold; 0 selects the
	// paper's default of |E|/20.
	Threshold int64
	// RemoveDuplicates makes a sparse round claim each destination's bit
	// in a round bitset before appending it, so an UpdateAtomic that may
	// return true more than once per destination yields it once. A dense
	// round's output is a bitset already.
	RemoveDuplicates bool
	// NoOutput skips constructing the output frontier (Ligra's no_output
	// flag); EdgeMap returns an empty subset.
	NoOutput bool
	// DenseEarlyExit lets the dense (pull) traversal stop scanning a
	// destination's in-edges after its first successful update. That is
	// sound only when updates are idempotent membership claims — any
	// later successful update for the same destination must be fully
	// redundant, side effects included. BFS-style visited/parent CAS
	// claims qualify; priority updates (writeMin labels or distances) do
	// NOT, because later updates refine the value. Algorithms opt in
	// explicitly; the flag is independent of RemoveDuplicates, which only
	// promises that duplicate *membership* is collapsed.
	DenseEarlyExit bool
	// Trace, when non-nil, records one entry per EdgeMap call for the
	// frontier-trace experiments.
	Trace *Trace
	// Procs, when positive, caps the number of worker goroutines used by
	// every parallel loop of this call at min(Procs, GOMAXPROCS). It is
	// how a server grants each query a bounded share of
	// the machine (see parallel.WithProcs); 0 inherits the cap already on
	// the context, if any.
	Procs int
}

// DefaultThresholdDenominator is the paper's frontier-size switch constant:
// edgeMap goes dense when |U| + outDegrees(U) > |E|/20.
const DefaultThresholdDenominator = 20

// smallRoundWork is the |U| + outDegrees(U) at or below which a sparse
// round runs as one chunk on the calling goroutine. It keeps the automatic
// grain, which targets eight chunks per worker whatever the round's size,
// from cutting a frontier of a few dozen vertices into one-vertex chunks
// and dispatching those to the pool. The value is not tuned: with the
// bound off, the scheduler experiment's rows read between 0.79x and 1.26x
// of themselves on consecutive runs.
const smallRoundWork = 1024

// TraceEntry records one EdgeMap invocation for the fig-frontier
// experiment.
type TraceEntry struct {
	Round        int
	FrontierSize int
	OutDegrees   int64
	// Mode is the traversal the round ran, never Auto; Dense (Pull or
	// Forward) and DenseForward (Forward) are set from it.
	Mode         Mode
	Dense        bool
	DenseForward bool
	OutputSize   int
	Duration     time.Duration
}

// Trace accumulates TraceEntries across EdgeMap calls.
type Trace struct {
	Entries []TraceEntry
}

// EdgeMap applies f to every edge (s, d) with s in u and Cond(d) true, and
// returns the subset of destinations for which an update returned true.
// The traversal is sparse (push over out-edges of u) or dense (pull over
// in-edges of all vertices) according to the frontier-size heuristic; see
// Options to force a mode or tune the threshold.
//
// ctx is the context the round runs under (nil behaves like
// context.Background()): its worker cap bounds every loop of the round,
// and cancellation is observed at chunk granularity — the traversal stops
// dispatching work within one chunk and returns (nil, ctx.Err()). Updates
// already applied when the traversal aborts are NOT rolled back —
// per-vertex state mutated by f keeps all completed writes, which is what
// gives algorithms their partial results. A panic in a worker is returned
// as a *parallel.PanicError instead of panicking.
func EdgeMap(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	n := g.NumVertices()
	if u.UniverseSize() != n {
		panic("core: EdgeMap frontier universe does not match graph")
	}
	if f.Update == nil && f.UpdateAtomic == nil {
		// PullRows alone would work until the first sparse round
		// dereferenced a nil update.
		panic("core: EdgeMap EdgeFuncs has neither Update nor UpdateAtomic")
	}
	faultinject.OnRound()
	if opts.Procs > 0 {
		ctx = parallel.WithProcs(ctx, opts.Procs)
	}
	if err := parallel.CtxErr(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	if u.IsEmpty() {
		out := NewEmpty(n)
		globalStats.record(0, 0, Sparse, false, 0)
		traceRecord(opts.Trace, u, 0, Sparse, out, start)
		return out, nil
	}

	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = g.NumEdges() / DefaultThresholdDenominator
	}
	sc := roundPool.Get().(*roundScratch)
	defer sc.release()
	sc.g = g
	if csr, ok := g.(*graph.Graph); ok {
		sc.offs, sc.edges, sc.wts = csr.Offsets(), csr.Edges(), csr.Weights()
	}
	// Without a Cond or DenseEarlyExit a kernel cannot stop early: a pull
	// round reads every in-edge and a push round updates on every edge.
	// For such a kernel the degree scan runs on past the sparse threshold
	// to the forward/pull crossover.
	pullFull := f.Cond == nil && !opts.DenseEarlyExit
	stopAfter := threshold - int64(u.Size())
	if pullFull && opts.Mode == Auto {
		stopAfter = max(stopAfter, forwardLimit(g))
	}
	outDeg, err := sc.frontierOutDegrees(ctx, u, stopAfter)
	if err != nil {
		return nil, err
	}
	mode := chooseRound(g, u.Size(), outDeg, threshold, pullFull, opts.Mode)

	// The degree scan stops early only once the sum has passed the dense
	// threshold, so a partial sum can pass for a small round only where
	// that threshold is itself below smallRoundWork and the caller forced
	// the round sparse: graphs too small for the chunking to matter.
	seq := mode == Sparse && int64(u.Size())+outDeg <= smallRoundWork
	var out *VertexSubset
	switch mode {
	case Forward:
		out, err = sc.edgeMapDenseForward(ctx, u, f, opts)
	case Pull:
		out, err = sc.edgeMapDense(ctx, u, f, opts)
	default:
		out, err = sc.edgeMapSparse(ctx, u, f, opts, seq)
	}
	if err != nil {
		return nil, err
	}
	globalStats.record(u.Size(), outDeg, mode, seq, out.Size())
	traceRecord(opts.Trace, u, outDeg, mode, out, start)
	return out, nil
}

// The rule's constants, from forced-mode runs of the same rounds on
// weighted graphs at scale 18 (2-vCPU VM, GOMAXPROCS 2, per-round minimum
// of five runs; times are one round's ms under sparse / dense-forward /
// pull):
//
//   - forwardWordRatio, forwardWordRatioFull: below the sparse threshold,
//     a round goes forward once its frontier's out-edges outnumber the
//     n/64 bitset words the forward round walks by this much. Where most
//     push edges stop early, the word walk's fixed cost needs many edges
//     to pay back: grid BFS at 9.0x the words reads 0.59 / 0.60, rMat BFS
//     at 12.1x 0.93 / 0.94, grid radii at 13.4x 0.84 / 1.22 and 29.4x
//     2.26 / 1.82. Where every push edge runs its update, vertex order
//     pays sooner: grid Bellman-Ford at 1.3x reads 0.16 / 0.18, at 3.9x
//     0.38 / 0.34 and at 8.5x 0.81 / 0.54 (rMat Bellman-Ford's one such
//     round, 12.1x, reads 1.41 / 1.65, a 0.2 ms loss in a 250 ms run).
//     The rule sees an early stop only as a Cond, so ClusterBFS, whose
//     update stops most edges at its first test, gets the lower ratio.
//   - forwardEdgeCost: a forward round's edge (an atomic update on a
//     scattered destination) costs about this many of a pull round's
//     sequential in-edges, so a kernel that reads every in-edge pulls
//     only once 5·outDeg(U) + n/64 reaches m. Grid radii crosses there:
//     0.13m reads 2.38 forward against 2.66 pull, 0.20m 2.74 / 2.74,
//     0.27m 4.59 / 2.77. Grid Bellman-Ford's largest frontier, 0.13m,
//     forwards in 2.34 against a pull round's 3.1; rMat Bellman-Ford's
//     0.19m round stays forward, below the line.
const (
	forwardWordRatio     = 12
	forwardWordRatioFull = 4
	forwardEdgeCost      = 5
)

// forwardLimit is the frontier out-degree below which a forward round
// costs less than a pull round that reads every in-edge.
func forwardLimit(g graph.View) int64 {
	return (g.NumEdges() - int64(g.NumVertices()/64)) / forwardEdgeCost
}

// chooseRound picks a round's traversal. A forced mode is returned as
// is. Under Auto, Ligra's threshold splits sparse from dense, and each
// side is then priced:
//
//   - at or under the threshold, a round whose out-edges are many times
//     the n/64 bitset words (forwardWordRatio, or forwardWordRatioFull
//     when no Cond prunes push edges) walks the words instead of an ID
//     array: the same edges in vertex order, no output array to assemble;
//   - over it, pull is Ligra's choice when the kernel can stop early — a
//     Cond that turns false, or DenseEarlyExit — because it then reads a
//     fraction of the in-edges. A kernel without either reads all m, and
//     forward is cheaper until forwardEdgeCost·outDeg(U) + n/64 reaches m.
//
// outDeg may be a partial sum past whichever bound decided the round.
func chooseRound(g graph.View, frontier int, outDeg, threshold int64, pullFull bool, mode Mode) Mode {
	if mode != Auto {
		return mode
	}
	if int64(frontier)+outDeg <= threshold {
		ratio := int64(forwardWordRatio)
		if pullFull {
			ratio = forwardWordRatioFull
		}
		if outDeg > ratio*int64(g.NumVertices()/64+1) {
			return Forward
		}
		return Sparse
	}
	if pullFull && outDeg < forwardLimit(g) {
		return Forward
	}
	return Pull
}

func traceRecord(t *Trace, u *VertexSubset, outDeg int64, mode Mode, out *VertexSubset, start time.Time) {
	if t == nil {
		return
	}
	t.Entries = append(t.Entries, TraceEntry{
		Round:        len(t.Entries),
		FrontierSize: u.Size(),
		OutDegrees:   outDeg,
		Mode:         mode,
		Dense:        mode != Sparse,
		DenseForward: mode == Forward,
		OutputSize:   out.Size(),
		Duration:     time.Since(start),
	})
}

// roundScratch is one EdgeMap call's reusable state: the view's raw rows,
// the degree scan's running sum, the sparse traversal's per-worker
// buffers, and the loop bodies that read them. The bodies are built once
// per scratch, so a round allocates no closures, and the buffers keep
// their capacity from round to round, so a warm sparse round allocates
// only its output. Calls take a scratch from roundPool and release it.
type roundScratch struct {
	// The round in flight, cleared by release.
	g     graph.View
	offs  []int64 // raw CSR out-rows; nil when rows come from g
	edges []uint32
	wts   []int32

	// The degree scan.
	ids       []uint32 // sparse frontier
	words     []uint64 // dense frontier
	stopAfter int64
	sum       atomic.Int64

	// The sparse traversal.
	update  func(s, d uint32, w int32) bool
	cond    func(d uint32) bool
	keep    bool
	claimed *bitset.Bitset // RemoveDuplicates: the round's output members
	workers []sparseWorkerBuf
	segLen  []int64

	// The pull traversal: one row block per worker.
	pulls []rowBlock

	degIDs, degWords, push func(worker, chunk, lo, hi int)
}

var roundPool = sync.Pool{New: func() any {
	sc := &roundScratch{}
	sc.degIDs, sc.degWords = sc.degreesOfIDs, sc.degreesOfWords
	sc.push = sc.pushChunk
	return sc
}}

// release drops the scratch's references into the round — the graph, the
// frontier, the caller's functions and the claimed bitset — and pools it.
// The worker buffers keep their capacity.
func (sc *roundScratch) release() {
	sc.g, sc.offs, sc.edges, sc.wts = nil, nil, nil, nil
	sc.ids, sc.words, sc.update, sc.cond, sc.claimed = nil, nil, nil, nil, nil
	roundPool.Put(sc)
}

// outDegree is v's out-degree, read off raw CSR offsets when there are.
func (sc *roundScratch) outDegree(v uint32) int64 {
	if sc.offs != nil {
		return sc.offs[v+1] - sc.offs[v]
	}
	return int64(sc.g.OutDegree(v))
}

// outRow is s's out-row, sliced from raw CSR arrays when there are and
// otherwise fetched from the view into buf.
func (sc *roundScratch) outRow(s uint32, buf *graph.Row) ([]uint32, []int32) {
	if sc.offs == nil {
		return sc.g.OutRow(s, buf)
	}
	lo, hi := sc.offs[s], sc.offs[s+1]
	if sc.wts == nil {
		return sc.edges[lo:hi], nil
	}
	return sc.edges[lo:hi], sc.wts[lo:hi]
}

// Block sizes for the capped degree sum: small enough that the scan stops
// within one or two blocks of crossing the threshold, large enough that a
// full scan dispatches only a handful of chunks.
const (
	outDegGrainIDs   = 4096 // sparse frontier: vertex IDs per block
	outDegGrainWords = 64   // dense frontier: 64-bit words (4096 bits) per block
)

// frontierOutDegrees computes the total out-degree of the frontier, the
// quantity the direction rule weighs. The caller only needs to know
// whether the sum exceeds stopAfter, so the scan short-circuits: once the
// running sum passes stopAfter, remaining blocks are skipped and the
// returned value is a partial sum that is guaranteed to exceed stopAfter.
// Pass a negative stopAfter to force the short-circuit immediately, or
// math.MaxInt64 for an exact total.
func (sc *roundScratch) frontierOutDegrees(ctx context.Context, u *VertexSubset, stopAfter int64) (int64, error) {
	if u.Size() == u.UniverseSize() {
		// Full frontier (most algorithms' first round): the sum is |E|.
		return sc.g.NumEdges(), parallel.CtxErr(ctx)
	}
	sc.sum.Store(0)
	sc.stopAfter = stopAfter
	if u.HasSparse() {
		ids, err := u.ToSparse(ctx)
		if err != nil {
			return 0, err
		}
		sc.ids = ids
		err = parallel.ForWorkerChunks(ctx, (len(ids)+outDegGrainIDs-1)/outDegGrainIDs, 1, sc.degIDs)
		return sc.sum.Load(), err
	}
	// Dense: walk the frontier bitset a word at a time, skipping empty words.
	ud, err := u.ToDense(ctx)
	if err != nil {
		return 0, err
	}
	sc.words = ud.Words()
	err = parallel.ForWorkerChunks(ctx, (len(sc.words)+outDegGrainWords-1)/outDegGrainWords, 1, sc.degWords)
	return sc.sum.Load(), err
}

func (sc *roundScratch) degreesOfIDs(_, b, _, _ int) {
	if sc.sum.Load() > sc.stopAfter {
		return
	}
	var local int64
	for _, v := range sc.ids[b*outDegGrainIDs : min((b+1)*outDegGrainIDs, len(sc.ids))] {
		local += sc.outDegree(v)
	}
	sc.sum.Add(local)
}

func (sc *roundScratch) degreesOfWords(_, b, _, _ int) {
	if sc.sum.Load() > sc.stopAfter {
		return
	}
	var local int64
	for wi := b * outDegGrainWords; wi < min((b+1)*outDegGrainWords, len(sc.words)); wi++ {
		base := wi * 64
		w := sc.words[wi]
		if sc.offs == nil {
			for ; w != 0; w &= w - 1 {
				local += sc.outDegree(uint32(base + bits.TrailingZeros64(w)))
			}
			continue
		}
		// Raw CSR: a run of consecutive members' degrees is one difference
		// of offsets, so a dense frontier costs a load pair per run, not
		// per member.
		for w != 0 {
			lo := bits.TrailingZeros64(w)
			run := bits.TrailingZeros64(^(w >> lo))
			local += sc.offs[base+lo+run] - sc.offs[base+lo]
			w &^= (uint64(1)<<run - 1) << lo
		}
	}
	sc.sum.Add(local)
}

// sparseSeg records where one chunk's output landed inside a worker's
// local buffer, so the chunks can be reassembled in input order.
type sparseSeg struct {
	chunk, start, end int
}

// sparseWorkerBuf is one worker's private output accumulation and row
// scratch for edgeMapSparse. Workers only ever touch their own entry, so
// appends are contention-free; the trailing pad keeps neighbouring
// workers' slice headers on different cache lines.
type sparseWorkerBuf struct {
	ids  []uint32
	segs []sparseSeg
	row  graph.Row
	_    [32]byte
}

// edgeMapSparse is Ligra's edgeMapSparse: push over the out-edges of the
// frontier vertices. Successful targets are appended to per-worker output
// buffers (no shared cursor, no atomics, no degree-sized scratch with
// sentinel holes) and concatenated afterward in chunk order: successes in
// frontier edge order, writing only the successes instead of one slot per
// scanned edge. A round the caller found small (see smallRoundWork) asks
// for a single chunk, which parallel.ForWorkerChunks runs on the calling
// goroutine with the same panic containment, ctx checks and
// fault-injection hook as any other. Under RemoveDuplicates each success
// first claims its destination's bit in a bitset, which then serves as the
// output's dense form too: deduplication costs one bit per vertex and no
// pass of its own.
func (sc *roundScratch) edgeMapSparse(ctx context.Context, u *VertexSubset, f EdgeFuncs, opts Options, oneChunk bool) (*VertexSubset, error) {
	n := sc.g.NumVertices()
	ids, err := u.ToSparse(ctx)
	if err != nil {
		return nil, err
	}
	sc.ids, sc.update, sc.cond, sc.keep = ids, f.pushUpdate(), f.Cond, !opts.NoOutput
	if opts.RemoveDuplicates && sc.keep {
		sc.claimed = bitset.New(n)
	}

	grain := len(ids)
	if !oneChunk {
		grain = parallel.AutoGrain(ctx, len(ids))
	}
	nchunks := (len(ids) + grain - 1) / grain
	procs := parallel.CtxProcs(ctx)
	if cap(sc.workers) < procs {
		sc.workers = make([]sparseWorkerBuf, procs)
	}
	sc.workers = sc.workers[:procs]
	for w := range sc.workers {
		sc.workers[w].ids, sc.workers[w].segs = sc.workers[w].ids[:0], sc.workers[w].segs[:0]
	}
	if cap(sc.segLen) < nchunks {
		sc.segLen = make([]int64, nchunks)
	}
	sc.segLen = sc.segLen[:nchunks]
	if err := parallel.ForWorkerChunks(ctx, len(ids), grain, sc.push); err != nil {
		// Undispatched chunks never wrote their segment; no frontier can
		// be derived from the partial buffers.
		return nil, err
	}
	if !sc.keep {
		return NewEmpty(n), nil
	}
	// An exclusive scan turns per-chunk lengths into output offsets, and
	// each worker's segments are copied into place.
	var total int64
	for c, l := range sc.segLen {
		sc.segLen[c] = total
		total += l
	}
	outIDs := make([]uint32, total)
	for w := range sc.workers {
		wb := &sc.workers[w]
		for _, sg := range wb.segs {
			copy(outIDs[sc.segLen[sg.chunk]:], wb.ids[sg.start:sg.end])
		}
	}
	out := NewSparse(n, outIDs)
	out.dense = sc.claimed
	return out, nil
}

// pushChunk is edgeMapSparse's body over frontier positions [lo, hi).
func (sc *roundScratch) pushChunk(wk, c, lo, hi int) {
	wb := &sc.workers[wk]
	buf := wb.ids
	start := len(buf)
	update, cond, keep, claimed := sc.update, sc.cond, sc.keep, sc.claimed
	for _, s := range sc.ids[lo:hi] {
		row, wts := sc.outRow(s, &wb.row)
		for j, d := range row {
			w := int32(1)
			if wts != nil {
				w = wts[j]
			}
			if (cond == nil || cond(d)) && update(s, d, w) && keep && (claimed == nil || claimed.SetAtomic(int(d))) {
				buf = append(buf, d)
			}
		}
	}
	wb.ids = buf
	wb.segs = append(wb.segs, sparseSeg{chunk: c, start: start, end: len(buf)})
	// Each chunk is dispatched to exactly one worker: no contention.
	sc.segLen[c] = int64(len(buf) - start)
}

// denseBlockAlign is the alignment of the dense traversal's destination
// blocks: the bitset word size, so every block owns whole words of the
// output bit vector and sets output bits without atomics.
const denseBlockAlign = 64

// denseGrain picks the destination-block size for the dense traversals:
// the automatic load-balancing grain under ctx's worker count, rounded up
// to whole bitset words.
func denseGrain(ctx context.Context, n int) int {
	g := parallel.AutoGrain(ctx, n)
	return (g + denseBlockAlign - 1) &^ (denseBlockAlign - 1)
}

// InFrontier reports whether s belongs to the frontier whose words a
// PullRows kernel was handed (nil words = every vertex).
func InFrontier(frontier []uint64, s uint32) bool {
	return frontier == nil || frontier[s>>6]&(1<<(s&63)) != 0
}

// perEdgeRows is the default row kernel, Ligra's per-edge dense loop over
// a block: for every destination d of the block whose Cond holds, apply
// update to every frontier in-edge of d, stopping once Cond(d) turns false
// (and, under DenseEarlyExit, after the first successful update). firstCond
// says whether it tests Cond before a row: a driver that has tested it
// already passes false.
func perEdgeRows(update func(s, d uint32, w int32) bool, cond func(d uint32) bool, earlyExit, firstCond bool) func(uint32, []int64, []uint32, []int32, []uint64) uint64 {
	// The full and filtered row loops are split so neither pays the
	// other's branch.
	return func(lo uint32, offs []int64, srcs []uint32, wts []int32, frontier []uint64) uint64 {
		var word uint64
		for i := range len(offs) - 1 {
			d := lo + uint32(i)
			if firstCond && cond != nil && !cond(d) {
				continue
			}
			hit := false
			if frontier == nil {
				for j := offs[i]; j < offs[i+1]; j++ {
					w := int32(1)
					if wts != nil {
						w = wts[j]
					}
					if update(srcs[j], d, w) {
						hit = true
						if earlyExit {
							break
						}
					}
					if cond != nil && !cond(d) {
						break // early exit: d needs no more updates
					}
				}
			} else {
				for j := offs[i]; j < offs[i+1]; j++ {
					s := srcs[j]
					if frontier[s>>6]&(1<<(s&63)) == 0 {
						continue
					}
					w := int32(1)
					if wts != nil {
						w = wts[j]
					}
					if update(s, d, w) {
						hit = true
						if earlyExit {
							break
						}
					}
					if cond != nil && !cond(d) {
						break // early exit: d needs no more updates
					}
				}
			}
			if hit {
				word |= 1 << uint(i)
			}
		}
		return word
	}
}

// inPatched is implemented by a view whose in-rows are a raw CSR's with
// some rows replaced (a delta overlay over a *graph.Graph). A pull round
// reads the rows it did not replace straight out of the CSR's arrays, as
// it reads a *graph.Graph's, and the replaced ones straight out of the
// view's.
type inPatched interface {
	// InBase returns the CSR whose in-rows the view serves wherever it
	// replaced none, or nil if it has none.
	InBase() *graph.Graph
	// InReplaced returns as bits which of the 64 vertices from lo, a
	// multiple of 64, have an in-row that is not InBase's — the replaced
	// rows and every vertex past the base's — and the view's rows for
	// them, in place: rows[i] is lo+i's where bit i is set, and a nil
	// rows or a nil rows[i].Targets stands for an empty row.
	InReplaced(lo uint32) (bits uint64, rows *[64]graph.Row)
}

// rowBlock is one worker's scratch for the rows a pull round fetches one
// at a time: the offsets of a block of one and the row buffer a decoding
// view fills. Workers only ever touch their own entry; the pad keeps
// neighbouring workers' entries on different cache lines.
type rowBlock struct {
	offs [2]int64
	buf  graph.Row
	_    [48]byte
}

// denseEarlyPrefix is how many in-edges a DenseEarlyExit round hands the
// kernel before the rest of the row. Most destinations a BFS-like claim
// reaches find a frontier parent among their first few in-edges, so a
// decoding view (compressed, mmap) decodes those instead of whole rows.
// Measured over the block kernel with BenchmarkPullViews/compressed/BFS
// (rMat scale 16, 2-vCPU VM, one test binary per value, 8 alternating
// runs of -benchtime 30x, medians):
//
//	prefix        1      2      4      8      whole rows
//	-cpu 1  ms    9.9    7.4    8.7    12.1   12.7
//	-cpu 2  ms    7.5    6.0    5.7    6.6    8.0
//
// 4 was ahead of whole rows in 6 of 8 pairs at one proc and 7 of 8 at
// two; 1 to 4 form the flat region, 8 is already losing, and 4 is kept.
// benchmark/'s compress.bfs_ms times this traversal at scale 18.
const denseEarlyPrefix = 4

// edgeMapDense is Ligra's edgeMapDense as a row driver. The row kernel is
// f.PullRows, or perEdgeRows over Update/Cond when the caller set none.
// Over a raw CSR it hands the kernel one 64-destination block per call,
// offsets and edges straight out of the transpose arrays, and stores the
// word the kernel returns: no per-destination call of any kind, Cond
// included. Over an overlay on a raw CSR (inPatched) it does the
// same for each run of rows the overlay did not replace. Every other row
// — a replaced one, in place in the overlay, or one decoded into the
// worker's scratch from a compressed byte stream — it fetches after
// Cond(d) held and hands over as a block of one. Under DenseEarlyExit, on
// a view that has no CSR to read in place, it fetches and hands over
// only the first denseEarlyPrefix edges, then the rest only if the
// kernel found nothing there and Cond(d) still holds: by DenseEarlyExit's
// definition, whatever a later edge would have done after a hit is
// redundant. d is processed by exactly one goroutine, so kernels need no
// atomics on d's state, and in blocks aligned to output bitset words, so
// output bits are set with plain stores.
func (sc *roundScratch) edgeMapDense(ctx context.Context, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	g := sc.g
	n := g.NumVertices()
	update := f.Update
	if update == nil {
		update = f.UpdateAtomic
	}
	cond := f.Cond
	// Rows that lie in a CSR's arrays — a raw CSR's, or an overlay's
	// rows over one that it did not replace — are handed over whole, a
	// word's worth per call: a dynamic InRow call per destination
	// measurably slows dense rounds over short weighted rows (DESIGN
	// §5a.8), and a row with nothing to decode gains nothing from the
	// early-exit prefix — splitting them cost a scale-16 rMat BFS 4 %
	// under go test -bench (2.89 vs 2.77 ms medians, whole rows ahead in
	// 15 of 16 alternating pairs at one worker). The rows an overlay
	// replaced are in place too, so they come whole as well.
	prefix := math.MaxInt
	var inOffs []int64
	var inEdges []uint32
	var inWts []int32
	var patched inPatched
	if csr, ok := g.(*graph.Graph); ok {
		inOffs, inEdges, inWts = csr.InOffsets(), csr.InEdges(), csr.InWeights()
	} else if p, ok := g.(inPatched); ok && p.InBase() != nil {
		base := p.InBase()
		inOffs, inEdges, inWts, patched = base.InOffsets(), base.InEdges(), base.InWeights(), p
	} else if opts.DenseEarlyExit {
		prefix = denseEarlyPrefix
	}
	kernel := f.PullRows
	if kernel == nil {
		kernel = perEdgeRows(update, cond, opts.DenseEarlyExit, inOffs != nil)
	}
	// Full frontier (PageRank iterations, components round one): every
	// source passes the membership test, so the words stay nil and the
	// kernels skip the per-edge bit probe.
	var uw []uint64
	if u.Size() != n {
		ud, err := u.ToDense(ctx)
		if err != nil {
			return nil, err
		}
		uw = ud.Words()
	}
	var out *bitset.Bitset
	if !opts.NoOutput {
		out = bitset.New(n)
	}

	var ow []uint64
	if out != nil {
		ow = out.Words()
	}

	if procs := parallel.CtxProcs(ctx); cap(sc.pulls) < procs {
		sc.pulls = make([]rowBlock, procs)
	} else {
		sc.pulls = sc.pulls[:procs]
	}
	err := parallel.ForWorkerChunks(ctx, n, denseGrain(ctx, n), func(w, _, lo, hi int) {
		blk := &sc.pulls[w]
		for wlo := lo; wlo < hi; wlo += 64 {
			whi := min(wlo+64, hi)
			// The word's rows that do not lie in a CSR's arrays: all of
			// them on a view without one, the replaced ones on an
			// overlay over one.
			fetched := ^uint64(0)
			var held *[64]graph.Row
			if patched != nil {
				fetched, held = patched.InReplaced(uint32(wlo))
			} else if inOffs != nil {
				fetched = 0
			}
			var word uint64
			for a := wlo; a < whi; {
				if fetched>>uint(a-wlo)&1 == 0 {
					// A run of rows in the CSR: one call, no Cond.
					z := min(a+bits.TrailingZeros64(fetched>>uint(a-wlo)), whi)
					word |= kernel(uint32(a), inOffs[a:z+1], inEdges, inWts, uw) << uint(a-wlo)
					a = z
					continue
				}
				d := uint32(a)
				a++
				if cond != nil && !cond(d) {
					continue
				}
				var srcs []uint32
				var wts []int32
				if patched == nil {
					srcs, wts = g.InRow(d, &blk.buf, prefix)
				} else if held != nil {
					srcs, wts = held[d&63].Targets, held[d&63].Weights
				}
				blk.offs = [2]int64{0, int64(len(srcs))}
				hit := kernel(d, blk.offs[:], srcs, wts, uw)
				if hit == 0 && len(srcs) == prefix && (cond == nil || cond(d)) {
					// Nothing in the prefix: the rest of the row, if any.
					if srcs, wts = g.InRow(d, &blk.buf, math.MaxInt); len(srcs) > prefix {
						blk.offs = [2]int64{int64(prefix), int64(len(srcs))}
						hit = kernel(d, blk.offs[:], srcs, wts, uw)
					}
				}
				word |= (hit & 1) << (d & 63)
			}
			if word != 0 && ow != nil {
				ow[wlo>>6] = word // this block owns the word
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return NewEmpty(n), nil
	}
	return NewDense(n, out), nil
}

// edgeMapDenseForward is Ligra's write-based dense variant: loop over all
// vertices, and for frontier members push over out-edges with atomic
// updates. It avoids the transpose (useful for graphs stored only forward)
// at the cost of atomics and no early exit. The frontier bit vector is
// scanned a word at a time: an empty word costs one load, not 64 bit tests.
func (sc *roundScratch) edgeMapDenseForward(ctx context.Context, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	n := sc.g.NumVertices()
	ud, err := u.ToDense(ctx)
	if err != nil {
		return nil, err
	}
	update := f.pushUpdate()
	cond := f.Cond

	var out *bitset.Bitset
	if !opts.NoOutput {
		out = bitset.New(n)
	}
	words := ud.Words()
	err = parallel.ForRange(ctx, len(words), func(lo, hi int) {
		var buf graph.Row
		for wi := lo; wi < hi; wi++ {
			w := words[wi]
			if w == 0 {
				continue
			}
			base := uint32(wi * 64)
			for w != 0 {
				s := base + uint32(bits.TrailingZeros64(w))
				w &= w - 1
				row, wts := sc.outRow(s, &buf)
				for j, d := range row {
					ew := int32(1)
					if wts != nil {
						ew = wts[j]
					}
					if (cond == nil || cond(d)) && update(s, d, ew) && out != nil {
						out.SetAtomic(int(d))
					}
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return NewEmpty(n), nil
	}
	return NewDense(n, out), nil
}
