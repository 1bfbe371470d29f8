package core

import (
	"context"
	"math/bits"
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
//     application's responsibility (e.g. CAS or priority-update "winner"
//     semantics); otherwise set RemoveDuplicates.
//   - Update(s, d, w) is the cheaper non-atomic variant used by dense
//     (pull) traversals, where the framework guarantees a single writer per
//     destination. If nil, UpdateAtomic is used everywhere.
//   - Cond(d) gates destinations: edges into d with Cond(d) false are
//     skipped, and a dense traversal stops scanning d's in-edges as soon as
//     Cond(d) turns false (Ligra's early exit). Nil means "always true".
//   - PullRow(d, srcs, wts, frontier), optional, replaces the per-edge
//     Update/Cond calls of a dense (pull) round with one call per
//     destination — the Go spelling of what C++ templates inline into
//     Ligra's edgeMapDense. srcs is d's whole in-row, wts its parallel
//     weights (nil: every weight is 1), frontier the frontier's bitset
//     words, or nil when every vertex is a member (see InFrontier). The
//     driver has checked Cond(d) and calls the kernel from one goroutine
//     per d, so d's state needs no atomics; the kernel owns its loop —
//     a register accumulator, a mid-row exit — and returns whether d joins
//     the output. It is the algorithm's pull implementation as UpdateAtomic
//     is its push, and a round may run either: views that cannot expose a
//     row (see edgeMapDense) still go per edge. DESIGN.md §5a has the
//     full contract.
//
// For unweighted graphs w is 1.
type EdgeFuncs struct {
	Update       func(s, d uint32, w int32) bool
	UpdateAtomic func(s, d uint32, w int32) bool
	Cond         func(d uint32) bool
	PullRow      func(d uint32, srcs []uint32, wts []int32, frontier []uint64) bool
}

// pushUpdate is the update function of the push traversals.
func (f EdgeFuncs) pushUpdate() func(s, d uint32, w int32) bool {
	if f.UpdateAtomic != nil {
		return f.UpdateAtomic
	}
	return f.Update
}

// Mode forces a traversal strategy, overriding the size heuristic.
type Mode int

const (
	// Auto applies the |U| + outDegrees(U) > threshold heuristic.
	Auto Mode = iota
	// ForceSparse always uses the sparse (push) traversal.
	ForceSparse
	// ForceDense always uses the dense (pull) traversal.
	ForceDense
)

// Options tunes a single EdgeMap call.
type Options struct {
	// Mode selects Auto (default) or a forced representation.
	Mode Mode
	// Threshold overrides the dense-switch threshold; 0 selects the
	// paper's default of |E|/20.
	Threshold int64
	// DenseForward selects the write-based dense traversal (loop over
	// sources, push over out-edges) instead of the default read-based
	// (pull) one when the dense representation is chosen.
	DenseForward bool
	// RemoveDuplicates deduplicates the sparse output frontier. Needed
	// when UpdateAtomic may return true more than once per destination.
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
	// every parallel loop of this call at min(Procs, the process-wide
	// setting). It is how a server grants each query a bounded share of
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
	Dense        bool
	DenseForward bool
	OutputSize   int
	Duration     time.Duration
}

// Trace accumulates TraceEntries across EdgeMap calls.
type Trace struct {
	Entries []TraceEntry
}

// scratchPool recycles the per-call deduplication arrays so iterative
// algorithms (e.g. Bellman-Ford's O(diameter) rounds) do not allocate an
// O(n) slice per round. Invariant: every pooled slice is all-None.
var scratchPool sync.Pool

func getScratch(n int) []uint32 {
	if s, ok := scratchPool.Get().([]uint32); ok && len(s) >= n {
		return s
	}
	s := make([]uint32, n)
	for i := range s {
		s[i] = None
	}
	return s
}

func putScratch(s []uint32) { scratchPool.Put(s) }

// EdgeMap applies f to every edge (s, d) with s in u and Cond(d) true, and
// returns the subset of destinations for which an update returned true.
// The traversal is sparse (push over out-edges of u) or dense (pull over
// in-edges of all vertices) according to the frontier-size heuristic; see
// Options to force a mode or tune the threshold.
//
// A worker panic propagates as a panic whose value is a
// *parallel.PanicError. Use EdgeMapCtx for cooperative cancellation.
func EdgeMap(g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) *VertexSubset {
	out, err := EdgeMapCtx(nil, g, u, f, opts)
	if err != nil {
		// With no context the only error is a contained worker panic: re-raise it.
		panic(err)
	}
	return out
}

// EdgeMapCtx is EdgeMap with cooperative cancellation and panic
// containment. ctx is the cancellation context (nil behaves like
// context.Background()). Cancellation is observed at chunk granularity:
// the traversal stops dispatching work within one chunk and returns
// (nil, ctx.Err()). Updates already applied when the traversal aborts are
// NOT rolled back — per-vertex state mutated by f keeps all completed
// writes, which is what gives algorithms their partial results. A panic in
// a worker is returned as a *parallel.PanicError instead of panicking.
func EdgeMapCtx(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	n := g.NumVertices()
	if u.UniverseSize() != n {
		panic("core: EdgeMap frontier universe does not match graph")
	}
	if f.Update == nil && f.UpdateAtomic == nil {
		// PullRow alone would work until the first sparse round, or the
		// first view that cannot expose rows, dereferenced a nil update.
		panic("core: EdgeMap EdgeFuncs has neither Update nor UpdateAtomic")
	}
	faultinject.OnRound()
	if opts.Procs > 0 {
		ctx = parallel.WithProcs(ctx, opts.Procs)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if u.IsEmpty() {
		out := NewEmpty(n)
		globalStats.record(0, 0, false, false, false, 0)
		traceRecord(opts.Trace, u, 0, false, false, out, start)
		return out, nil
	}

	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = g.NumEdges() / DefaultThresholdDenominator
	}
	outDeg, err := frontierOutDegrees(ctx, g, u, threshold-int64(u.Size()))
	if err != nil {
		return nil, err
	}
	dense := int64(u.Size())+outDeg > threshold
	switch opts.Mode {
	case ForceSparse:
		dense = false
	case ForceDense:
		dense = true
	}

	// The degree scan stops early only once the sum has passed the dense
	// threshold, so a partial sum can pass for a small round only where
	// that threshold is itself below smallRoundWork and the caller forced
	// the round sparse: graphs too small for the chunking to matter.
	seq := !dense && int64(u.Size())+outDeg <= smallRoundWork
	var out *VertexSubset
	switch {
	case dense && opts.DenseForward:
		out, err = edgeMapDenseForward(ctx, g, u, f, opts)
	case dense:
		out, err = edgeMapDense(ctx, g, u, f, opts)
	default:
		out, err = edgeMapSparse(ctx, g, u, f, opts, seq)
	}
	if err != nil {
		return nil, err
	}
	globalStats.record(u.Size(), outDeg, dense, dense && opts.DenseForward, seq, out.Size())
	traceRecord(opts.Trace, u, outDeg, dense, dense && opts.DenseForward, out, start)
	return out, nil
}

func traceRecord(t *Trace, u *VertexSubset, outDeg int64, dense, fwd bool, out *VertexSubset, start time.Time) {
	if t == nil {
		return
	}
	t.Entries = append(t.Entries, TraceEntry{
		Round:        len(t.Entries),
		FrontierSize: u.Size(),
		OutDegrees:   outDeg,
		Dense:        dense,
		DenseForward: fwd,
		OutputSize:   out.Size(),
		Duration:     time.Since(start),
	})
}

// Block sizes for the capped degree sum: small enough that the scan stops
// within one or two blocks of crossing the threshold, large enough that a
// full scan dispatches only a handful of chunks.
const (
	outDegGrainIDs   = 4096 // sparse frontier: vertex IDs per block
	outDegGrainWords = 64   // dense frontier: 64-bit words (4096 bits) per block
)

// frontierOutDegrees computes the total out-degree of the frontier, the
// quantity the paper's switch heuristic compares against |E|/20. The
// caller only needs to know whether the sum exceeds stopAfter, so the scan
// short-circuits: once the running sum passes stopAfter, remaining blocks
// are skipped and the returned value is a partial sum that is guaranteed
// to exceed stopAfter. Pass a negative stopAfter to force the short-circuit
// immediately, or math.MaxInt64 for an exact total.
func frontierOutDegrees(ctx context.Context, g graph.View, u *VertexSubset, stopAfter int64) (int64, error) {
	if u.Size() == u.UniverseSize() {
		// Full frontier (most algorithms' first round): the sum is |E|.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		return g.NumEdges(), nil
	}
	var sum atomic.Int64
	if u.HasSparse() {
		ids := u.ToSparse()
		blocks := (len(ids) + outDegGrainIDs - 1) / outDegGrainIDs
		err := parallel.ForGrainCtx(ctx, blocks, 1, func(b int) {
			if sum.Load() > stopAfter {
				return
			}
			lo := b * outDegGrainIDs
			hi := min(lo+outDegGrainIDs, len(ids))
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(g.OutDegree(ids[i]))
			}
			sum.Add(local)
		})
		return sum.Load(), err
	}
	// Dense: walk the frontier bitset a word at a time, skipping empty words.
	words := u.ToDense().Words()
	blocks := (len(words) + outDegGrainWords - 1) / outDegGrainWords
	err := parallel.ForGrainCtx(ctx, blocks, 1, func(b int) {
		if sum.Load() > stopAfter {
			return
		}
		var local int64
		for wi := b * outDegGrainWords; wi < min((b+1)*outDegGrainWords, len(words)); wi++ {
			w := words[wi]
			if w == 0 {
				continue
			}
			base := uint32(wi * 64)
			for w != 0 {
				local += int64(g.OutDegree(base + uint32(bits.TrailingZeros64(w))))
				w &= w - 1
			}
		}
		sum.Add(local)
	})
	return sum.Load(), err
}

// sparseSeg records where one chunk's output landed inside a worker's
// local buffer, so the chunks can be reassembled in input order.
type sparseSeg struct {
	chunk, start, end int
}

// sparseWorkerBuf is one worker's private output accumulation for
// edgeMapSparse. Workers only ever touch their own entry, so appends are
// contention-free; the trailing pad keeps neighbouring workers' slice
// headers on different cache lines.
type sparseWorkerBuf struct {
	ids  []uint32
	segs []sparseSeg
	_    [16]byte
}

// edgeMapSparse is Ligra's edgeMapSparse: push over the out-edges of the
// frontier vertices. Successful targets are appended to per-worker output
// buffers (no shared cursor, no atomics, no degree-sized scratch with
// sentinel holes) and concatenated afterward in chunk order: successes in
// frontier edge order, writing only the successes instead of one slot per
// scanned edge. A graph.RowView (raw CSR, a delta snapshot over it) takes
// a raw-slice fast path with no per-edge iterator callback. A round the
// caller found small (see smallRoundWork) asks for a single chunk, which
// parallel.ForWorkerChunksCtx runs on the calling goroutine with the same
// panic containment, ctx checks and fault-injection hook as any other.
func edgeMapSparse(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options, oneChunk bool) (*VertexSubset, error) {
	n := g.NumVertices()
	ids := u.ToSparse()
	update := f.pushUpdate()
	cond := f.Cond
	rows, _ := g.(graph.RowView)
	keep := !opts.NoOutput

	grain := len(ids)
	if !oneChunk {
		grain = parallel.AutoGrainCtx(ctx, len(ids))
	}
	nchunks := (len(ids) + grain - 1) / grain
	workers := make([]sparseWorkerBuf, parallel.CtxProcs(ctx))
	segLen := make([]int64, nchunks)
	err := parallel.ForWorkerChunksCtx(ctx, len(ids), grain, func(wk, c, lo, hi int) {
		wb := &workers[wk]
		buf := wb.ids
		start := len(buf)
		for i := lo; i < hi; i++ {
			s := ids[i]
			if rows != nil {
				row, wts := rows.OutRow(s)
				for j, d := range row {
					w := int32(1)
					if wts != nil {
						w = wts[j]
					}
					if (cond == nil || cond(d)) && update(s, d, w) && keep {
						buf = append(buf, d)
					}
				}
				continue
			}
			g.OutNeighbors(s, func(d uint32, w int32) bool {
				if (cond == nil || cond(d)) && update(s, d, w) && keep {
					buf = append(buf, d)
				}
				return true
			})
		}
		wb.ids = buf
		wb.segs = append(wb.segs, sparseSeg{chunk: c, start: start, end: len(buf)})
		// Each chunk is dispatched to exactly one worker: no contention.
		segLen[c] = int64(len(buf) - start)
	})
	if err != nil {
		// Undispatched chunks never wrote their segment; no frontier can
		// be derived from the partial buffers.
		return nil, err
	}
	if !keep {
		return NewEmpty(n), nil
	}
	// Exclusive scan turns per-chunk lengths into output offsets; each
	// worker then copies its segments into place in parallel.
	total := parallel.ScanExclusive(segLen, segLen)
	outIDs := make([]uint32, total)
	parallel.For(len(workers), func(wk int) {
		wb := &workers[wk]
		for _, sg := range wb.segs {
			copy(outIDs[segLen[sg.chunk]:], wb.ids[sg.start:sg.end])
		}
	})
	return NewSparse(n, dedupOutput(n, outIDs, opts)), nil
}

// dedupOutput applies Options.RemoveDuplicates to a sparse output frontier.
func dedupOutput(n int, ids []uint32, opts Options) []uint32 {
	if !opts.RemoveDuplicates || len(ids) < 2 {
		return ids
	}
	return removeDuplicates(n, ids)
}

// removeDuplicates keeps one occurrence of each vertex ID using a pooled
// CAS-claimed scratch array (Ligra's remDuplicates).
func removeDuplicates(n int, ids []uint32) []uint32 {
	scratch := getScratch(n)
	parallel.For(len(ids), func(i int) {
		d := ids[i]
		// Claim d with the smallest index; ties broken by writeMin.
		for {
			old := atomic.LoadUint32(&scratch[d])
			if old <= uint32(i) {
				return
			}
			if atomic.CompareAndSwapUint32(&scratch[d], old, uint32(i)) {
				return
			}
		}
	})
	out := parallel.FilterIndex(ids, func(i int, d uint32) bool {
		return scratch[d] == uint32(i)
	})
	// Restore the all-None invariant before pooling — over the deduplicated
	// output, not ids: out holds every distinct ID exactly once, so each
	// slot has a single writer (ids would have two workers racing plain
	// stores on duplicate entries) and the loop does less work.
	parallel.For(len(out), func(i int) {
		scratch[out[i]] = None
	})
	putScratch(scratch)
	return out
}

// denseBlock is the per-chunk scratch of the dense driver's decoded-row
// path: the decoded slab plus Cond's verdict per destination, sampled once
// so a row Cond rules out is neither decoded nor handed to the kernel.
// Blocks are pooled: iterative algorithms allocate once, not per round.
type denseBlock struct {
	graph.InBlock
	skipped []bool
}

var denseBlockPool = sync.Pool{New: func() any { return new(denseBlock) }}

// denseBlockAlign is the alignment of the dense traversal's destination
// blocks: the bitset word size, so every block owns whole words of the
// output bit vector and sets output bits without atomics.
const denseBlockAlign = 64

// denseGrain picks the destination-block size for the dense traversals:
// the automatic load-balancing grain, rounded up to whole bitset words.
func denseGrain(n int) int {
	g := parallel.AutoGrain(n)
	return (g + denseBlockAlign - 1) &^ (denseBlockAlign - 1)
}

// InFrontier reports whether s belongs to the frontier whose words a
// PullRow kernel was handed (nil words = every vertex).
func InFrontier(frontier []uint64, s uint32) bool {
	return frontier == nil || frontier[s>>6]&(1<<(s&63)) != 0
}

// perEdgeRow is the default row kernel, Ligra's per-edge dense loop: apply
// update to every frontier in-edge of d, stopping once Cond(d) turns false
// (and, under DenseEarlyExit, after the first successful update).
func perEdgeRow(update func(s, d uint32, w int32) bool, cond func(d uint32) bool, earlyExit bool) func(uint32, []uint32, []int32, []uint64) bool {
	// The framework's hottest loop: the full and filtered variants are
	// split so neither pays the other's branch.
	return func(d uint32, srcs []uint32, wts []int32, frontier []uint64) bool {
		hit := false
		if frontier == nil {
			for j, s := range srcs {
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
			return hit
		}
		for j, s := range srcs {
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
		return hit
	}
}

// edgeMapDense is Ligra's edgeMapDense as a row driver: for every vertex d
// whose Cond holds it fetches d's in-row as slices — in place from a
// graph.RowView (raw CSR, a delta snapshot over it), or from a cache-sized
// block decoded by a graph.InBlockDecoder (the GPOP-style blocked sweep of
// the compressed backend and of snapshots over it) — and hands it to the
// row kernel: f.PullRow, or perEdgeRow over Update/Cond when the caller set
// none. d is processed by exactly one goroutine, so kernels need no atomics
// on d's state, and in blocks aligned to output bitset words, so output
// bits are set with plain stores. Views that cannot expose a row (ad-hoc
// wrappers), and decodable views under DenseEarlyExit — where the lazy
// per-vertex decoder beats an eager decode of rows that stop at their
// first hit — go per edge.
func edgeMapDense(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	n := g.NumVertices()
	update := f.Update
	if update == nil {
		update = f.UpdateAtomic
	}
	cond := f.Cond
	earlyExit := opts.DenseEarlyExit
	kernel := f.PullRow
	if kernel == nil {
		kernel = perEdgeRow(update, cond, earlyExit)
	}
	// Full frontier (PageRank iterations, components round one): every
	// source passes the membership test, so the words stay nil and the
	// kernels skip the per-edge bit probe.
	var uw []uint64
	if u.Size() != n {
		uw = u.ToDense().Words()
	}
	var out *bitset.Bitset
	if !opts.NoOutput {
		out = bitset.New(n)
	}

	var body func(lo, hi int)
	if csr, ok := g.(*graph.Graph); ok {
		// The RowView loop below with the row fetch inlined: behind the
		// interface BenchmarkDensePullFull cost 10 % more (6.1 vs 5.5 ms).
		body = func(lo, hi int) {
			for di := lo; di < hi; di++ {
				d := uint32(di)
				if cond != nil && !cond(d) {
					continue
				}
				srcs, wts := csr.InRow(d)
				if kernel(d, srcs, wts, uw) && out != nil {
					out.Set(di) // this block owns the word
				}
			}
		}
	} else if rows, ok := g.(graph.RowView); ok {
		body = func(lo, hi int) {
			for di := lo; di < hi; di++ {
				d := uint32(di)
				if cond != nil && !cond(d) {
					continue
				}
				srcs, wts := rows.InRow(d)
				if kernel(d, srcs, wts, uw) && out != nil {
					out.Set(di) // this block owns the word
				}
			}
		}
	} else if bd, ok := g.(graph.InBlockDecoder); ok && !earlyExit {
		body = func(lo, hi int) {
			blk := denseBlockPool.Get().(*denseBlock)
			var skip func(uint32) bool
			if cond != nil {
				blk.skipped = blk.skipped[:0]
				for di := lo; di < hi; di++ {
					blk.skipped = append(blk.skipped, !cond(uint32(di)))
				}
				skip = func(d uint32) bool { return blk.skipped[int(d)-lo] }
			}
			bd.DecodeInBlock(uint32(lo), uint32(hi), skip, &blk.InBlock)
			for di := lo; di < hi; di++ {
				if skip != nil && blk.skipped[di-lo] {
					continue
				}
				srcs, wts := blk.Row(di - lo)
				if kernel(uint32(di), srcs, wts, uw) && out != nil {
					out.Set(di) // this block owns the word
				}
			}
			denseBlockPool.Put(blk)
		}
	} else {
		body = func(lo, hi int) {
			for di := lo; di < hi; di++ {
				d := uint32(di)
				if cond != nil && !cond(d) {
					continue
				}
				g.InNeighbors(d, func(s uint32, w int32) bool {
					if InFrontier(uw, s) {
						if update(s, d, w) {
							if out != nil {
								out.Set(di) // this block owns the word
							}
							if earlyExit {
								return false
							}
						}
						if cond != nil && !cond(d) {
							return false // early exit: d needs no more updates
						}
					}
					return true
				})
			}
		}
	}
	err := parallel.ForRangeGrainCtx(ctx, n, denseGrain(n), body)
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
func edgeMapDenseForward(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	n := g.NumVertices()
	ud := u.ToDense()
	update := f.pushUpdate()
	cond := f.Cond

	rows, _ := g.(graph.RowView)
	var out *bitset.Bitset
	if !opts.NoOutput {
		out = bitset.New(n)
	}
	words := ud.Words()
	err := parallel.ForRangeCtx(ctx, len(words), func(lo, hi int) {
		for wi := lo; wi < hi; wi++ {
			w := words[wi]
			if w == 0 {
				continue
			}
			base := uint32(wi * 64)
			for w != 0 {
				s := base + uint32(bits.TrailingZeros64(w))
				w &= w - 1
				if rows != nil {
					row, wts := rows.OutRow(s)
					for j, d := range row {
						ew := int32(1)
						if wts != nil {
							ew = wts[j]
						}
						if (cond == nil || cond(d)) && update(s, d, ew) && out != nil {
							out.SetAtomic(int(d))
						}
					}
					continue
				}
				g.OutNeighbors(s, func(d uint32, ew int32) bool {
					if (cond == nil || cond(d)) && update(s, d, ew) && out != nil {
						out.SetAtomic(int(d))
					}
					return true
				})
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
