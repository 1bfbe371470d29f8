package algo

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"ligra/internal/atomicx"
	"ligra/internal/bitset"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// InfDist is the distance assigned to unreachable vertices.
const InfDist = int64(math.MaxInt64) / 4 // headroom so dist+weight cannot overflow

// SSSPResult carries the output of single-source shortest paths.
type SSSPResult struct {
	// Dist[v] is the shortest-path distance from the source, or InfDist if
	// v is unreachable.
	Dist []int64
	// Rounds is the number of edgeMap rounds executed. The block-local
	// drain that follows a push round runs inside that round.
	Rounds int
	// NegativeCycle is true if a negative-weight cycle reachable from the
	// source was detected (after n rounds the frontier was still
	// non-empty); Dist is then not meaningful for vertices on or past the
	// cycle.
	NegativeCycle bool
}

// drainBlockShift sizes the blocks of the drain that follows each push
// round: 1<<15 contiguous vertex IDs. A prototype that drained after
// every round read, on a weighted (HashWeight(100)) side-64 torus at
// GOMAXPROCS 2 in one sitting, 53–57 ms at 2^15, 60–63 ms at 2^14 and
// 77–104 ms at 2^13, against 98–106 ms without a drain. The size is
// fixed, not a count per worker, so the partition — and so the round
// count — does not change with procs.
const drainBlockShift = 15

// BellmanFordCtx runs the paper's frontier-based Bellman-Ford (§5.6): each
// round relaxes the out-edges of vertices whose distance improved in the
// previous round, using writeMin as the priority update; edgeMap's
// RemoveDuplicates makes each improved destination join the output
// frontier once.
//
// After a push round (sparse or forward; pull rounds are left as they
// are) every block of 1<<drainBlockShift contiguous IDs drains the
// round's improvements inside it to a local fixpoint, in increasing
// distance order, and only improvements that cross a block boundary join
// the next frontier: GoFFish's sub-graph-centric fixpoint (DESIGN.md
// §5a). A block stops draining once its cross-block improvements
// outnumber its in-block ones and hands what it still holds to the next
// frontier, so a graph whose edges do not follow its IDs keeps the
// paper's rounds. The first negative weight the drain meets turns it off
// for the rest of the run, which keeps the n-round negative-cycle rule.
//
// On interruption Dist holds valid upper bounds on the true shortest-path
// distances (writeMin only ever tightens them), returned with a
// *RoundError.
func BellmanFordCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) (*SSSPResult, error) {
	return bellmanFord(ctx, g, source, opts, drainBlockShift)
}

// bellmanFord is BellmanFordCtx with blocks of 1<<blockShift vertices
// (blockShift >= 6, so a block owns whole bitset words).
func bellmanFord(ctx context.Context, g graph.View, source uint32, opts core.Options, blockShift uint) (*SSSPResult, error) {
	n := g.NumVertices()
	dist := make([]int64, n)
	err := fill(ctx, dist, InfDist)
	dist[source] = 0
	if err != nil {
		return &SSSPResult{Dist: dist}, roundErr("bellman-ford", 0, err)
	}
	if opts.Procs > 0 {
		// The drain's loop runs under the cap EdgeMap applies to its own.
		ctx = parallel.WithProcs(ctx, opts.Procs)
	}

	// pulled records that the round ran pull, whose output is the next
	// frontier as is.
	var pulled atomic.Bool
	funcs := core.EdgeFuncs{
		// Push: every improving writeMin succeeds, so d may be improved by
		// several sources in one round; the output keeps it once (see
		// RemoveDuplicates below). s's distance is read once per row: a
		// concurrent improvement of it puts s in the next frontier, whose
		// round relaxes its edges again. Weighted and unweighted rows get
		// a loop each, as in the pull kernel.
		PushRow: func(s uint32, dsts []uint32, wts []int32, out []uint32) []uint32 {
			sd := atomic.LoadInt64(&dist[s])
			if sd >= InfDist {
				return out
			}
			if wts == nil {
				for _, d := range dsts {
					if atomicx.WriteMinInt64(&dist[d], sd+1) {
						out = append(out, d)
					}
				}
				return out
			}
			for j, d := range dsts {
				if atomicx.WriteMinInt64(&dist[d], sd+int64(wts[j])) {
					out = append(out, d)
				}
			}
			return out
		},
		// Pull: each d's best relaxation in a register, one store. Every
		// in-edge is relaxed, frontier or not: an edge whose source has not
		// moved since its last relaxation cannot improve d, and an
		// unconditional load is cheaper than an unpredictable branch per
		// edge. Distances are loaded atomically: the sources' own rows are
		// being pulled concurrently, and a later row of the block reads
		// what an earlier one stored.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, wts []int32, _ []uint64) uint64 {
			if !pulled.Load() {
				pulled.Store(true)
			}
			own := dist[lo:][:len(offs)-1]
			var word uint64
			for i, orig := range own {
				best := orig
				// Weighted and unweighted rows get a loop each: one loop
				// with the weight test keeps so many values live that the
				// compiler spills them per edge.
				row := srcs[offs[i]:offs[i+1]]
				if wts == nil {
					for _, s := range row {
						if sd := atomic.LoadInt64(&dist[s]); sd < InfDist {
							best = min(best, sd+1)
						}
					}
				} else {
					ws := wts[offs[i]:offs[i+1]]
					for j, s := range row {
						if sd := atomic.LoadInt64(&dist[s]); sd < InfDist {
							best = min(best, sd+int64(ws[j]))
						}
					}
				}
				if best != orig {
					atomic.StoreInt64(&own[i], best)
					word |= 1 << (uint(i) & 63)
				}
			}
			return word
		},
	}

	// A sparse round claims each improved vertex's bit before listing it,
	// and a dense round's output is a bitset: either way a vertex joins the
	// next frontier once, with no per-round flag to reset.
	opts.RemoveDuplicates = true

	dr := newDrain(g, dist, blockShift)
	defer dr.release()
	frontier := core.NewSingle(n, source)
	rounds := 0
	for !frontier.IsEmpty() {
		if rounds >= n {
			return &SSSPResult{Dist: dist, Rounds: rounds, NegativeCycle: true}, nil
		}
		pulled.Store(false)
		next, err := core.EdgeMap(ctx, g, frontier, funcs, opts)
		if err == nil && !pulled.Load() && !next.IsEmpty() {
			start := time.Now()
			next, err = dr.run(ctx, next)
			if t := opts.Trace; t != nil && err == nil {
				e := &t.Entries[len(t.Entries)-1]
				e.Duration += time.Since(start)
				e.OutputSize = next.Size()
			}
		}
		if err != nil {
			return &SSSPResult{Dist: dist, Rounds: rounds},
				roundErr("bellman-ford", rounds, err)
		}
		frontier = next
		rounds++
	}
	return &SSSPResult{Dist: dist, Rounds: rounds, NegativeCycle: false}, nil
}

// drain is Bellman-Ford's block-local pass. Each block of 1<<shift
// contiguous IDs takes the push round's improvements inside it as seeds
// and relaxes them through a bucket queue (Dial's algorithm), one worker
// per block. An improvement inside the block is queued; one that crosses
// the boundary joins the next frontier, which another block's drain of
// the same round may also be feeding: a vertex whose distance another
// block lowered is in that frontier, so the drain may skip it.
type drain struct {
	g     graph.View
	csr   *graph.Graph // g's raw rows, or nil
	dist  []int64
	shift uint
	// off turns the drain off for the rest of the run: a row showed a
	// negative weight, under which a block's fixpoint may not exist.
	off atomic.Bool

	// The round in flight: the push round's output words and the next
	// frontier.
	seeds []uint64
	next  *bitset.Bitset

	queues []*bucketQueue // per worker, from queuePool
	body   func(worker, chunk, lo, hi int)
}

func newDrain(g graph.View, dist []int64, shift uint) *drain {
	d := &drain{g: g, dist: dist, shift: shift}
	d.csr, _ = g.(*graph.Graph)
	d.body = d.block
	return d
}

// queuePool keeps the workers' bucket queues, with their capacity, from
// run to run.
var queuePool = sync.Pool{New: func() any { return new(bucketQueue) }}

func (d *drain) release() {
	for _, q := range d.queues {
		q.row = graph.Row{}
		queuePool.Put(q)
	}
	d.queues = nil
}

// run drains the blocks holding the push round's output and returns the
// next frontier. Cancellation is observed between blocks.
func (d *drain) run(ctx context.Context, out *core.VertexSubset) (*core.VertexSubset, error) {
	if d.off.Load() {
		return out, nil
	}
	seeds, err := out.ToDense(ctx)
	if err != nil {
		return nil, err
	}
	n := len(d.dist)
	for len(d.queues) < parallel.CtxProcs(ctx) {
		d.queues = append(d.queues, queuePool.Get().(*bucketQueue))
	}
	d.seeds, d.next = seeds.Words(), bitset.New(n)
	blocks := (n + 1<<d.shift - 1) >> d.shift
	err = parallel.ForWorkerChunks(ctx, blocks, 1, d.body)
	next := d.next
	d.seeds, d.next = nil, nil
	if err != nil {
		return nil, err
	}
	return core.NewDense(n, next), nil
}

// block drains block b on worker wk's queue.
func (d *drain) block(wk, b, _, _ int) {
	dist, next, shift := d.dist, d.next, d.shift
	lo := b << shift
	first := lo >> 6
	words := d.seeds[first:min((lo+1<<shift)>>6, len(d.seeds))]
	// The seeds' span of distances sets the queue's key width.
	minD, maxD := int64(math.MaxInt64), int64(math.MinInt64)
	for i, w := range words {
		base := uint32(lo + i<<6)
		for ; w != 0; w &= w - 1 {
			dv := atomic.LoadInt64(&dist[base+uint32(bits.TrailingZeros64(w))])
			minD, maxD = min(minD, dv), max(maxD, dv)
		}
	}
	if minD > maxD {
		return
	}
	if d.off.Load() {
		nw := next.Words()
		for i, w := range words {
			atomicx.OrUint64(&nw[first+i], w)
		}
		return
	}
	q := d.queues[wk]
	q.start(minD, maxD)
	for i, w := range words {
		base := uint32(lo + i<<6)
		for ; w != 0; w &= w - 1 {
			v := base + uint32(bits.TrailingZeros64(w))
			q.push(v, atomic.LoadInt64(&dist[v]))
		}
	}
	blk := uint32(b)
	in, cross := 0, 0
	for {
		v, dv, ok := q.pop(dist)
		if !ok {
			return
		}
		var ts []uint32
		var ws []int32
		if d.csr != nil {
			ts, ws = d.csr.OutRow(v, nil)
		} else {
			ts, ws = d.g.OutRow(v, &q.row)
		}
		// Weighted and unweighted rows get a loop each, as in the
		// kernels; the weighted one ORs its weights, whose sign bit then
		// says whether any was negative.
		if ws == nil {
			nd := dv + 1
			for _, t := range ts {
				if atomicx.WriteMinInt64(&dist[t], nd) {
					if t>>shift == blk {
						q.push(t, nd)
						in++
					} else {
						next.SetAtomic(int(t))
						cross++
					}
				}
			}
		} else {
			var sign int32
			for j, t := range ts {
				w := ws[j]
				sign |= w
				nd := dv + int64(w)
				if atomicx.WriteMinInt64(&dist[t], nd) {
					if t>>shift == blk {
						q.push(t, nd)
						in++
					} else {
						next.SetAtomic(int(t))
						cross++
					}
				}
			}
			if sign < 0 {
				d.off.Store(true)
				q.flush(next)
				return
			}
		}
		// The gate: a block whose improvements mostly leave it is not a
		// sub-graph its worker can settle alone.
		if cross > in {
			q.flush(next)
			return
		}
	}
}

// numBuckets is the bucket queue's ring size. A key is a distance
// shifted right by the queue's shift; the ring holds the keys
// [cur, cur+numBuckets), and an entry past them waits in the overflow
// list until the ring runs dry.
const numBuckets = 128

// overflowEntry is a vertex queued past the ring, with its distance when
// queued: refill drops it if that distance has changed since.
type overflowEntry struct {
	v uint32
	d int64
}

// bucketQueue is one worker's Dial queue. Every entry of the ring's
// bucket cur was queued at key cur, so a popped vertex whose distance
// has since moved to a lower key is stale: this worker has relaxed it at
// that distance already, or another block lowered it and put it in the
// next frontier.
type bucketQueue struct {
	ring  [numBuckets][]uint32
	over  []overflowEntry
	spare []overflowEntry
	cur   int64 // key of the bucket being drained
	shift uint  // key = distance >> shift
	held  int   // entries in the ring
	row   graph.Row
}

// start empties the queue for distances in [lo, hi]: the narrowest key
// width that fits them in the ring, and the first key.
func (q *bucketQueue) start(lo, hi int64) {
	for i := range q.ring {
		q.ring[i] = q.ring[i][:0]
	}
	q.over, q.shift, q.held = q.over[:0], 0, 0
	q.widen(lo, hi)
}

// widen sets the key width to the narrowest, no narrower than the
// current one, that fits distances [lo, hi] in the ring, and cur to lo's
// key. The ring must be empty.
func (q *bucketQueue) widen(lo, hi int64) {
	for hi>>q.shift-lo>>q.shift >= numBuckets {
		q.shift++
	}
	q.cur = lo >> q.shift
}

// push queues v at distance dist, which is at least the distance of the
// vertex being relaxed, so its key is at least cur. (A seed whose
// distance another block lowered since start may fall below cur; the
// ring slot it lands in is reached only at a later key, where pop takes
// it for stale, as it is: the vertex is in the next frontier.)
func (q *bucketQueue) push(v uint32, dist int64) {
	k := dist >> q.shift
	if k-q.cur >= numBuckets {
		q.over = append(q.over, overflowEntry{v, dist})
		return
	}
	b := &q.ring[k&(numBuckets-1)]
	*b = append(*b, v)
	q.held++
}

// pop returns the next live vertex in key order and its distance, or
// false once the queue is empty.
func (q *bucketQueue) pop(dist []int64) (uint32, int64, bool) {
	for {
		if q.held == 0 && !q.refill(dist) {
			return 0, 0, false
		}
		b := &q.ring[q.cur&(numBuckets-1)]
		if len(*b) == 0 {
			q.cur++
			continue
		}
		v := (*b)[len(*b)-1]
		*b = (*b)[:len(*b)-1]
		q.held--
		if d := atomic.LoadInt64(&dist[v]); d>>q.shift == q.cur {
			return v, d, true
		}
	}
}

// refill moves the overflow entries still live into the empty ring,
// first widening the keys until they all fit: a weight many times the
// ring's span then coarsens the order instead of looping the ring. It
// reports whether any entry was live.
func (q *bucketQueue) refill(dist []int64) bool {
	live := q.over[:0]
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, e := range q.over {
		if atomic.LoadInt64(&dist[e.v]) == e.d {
			live = append(live, e)
			lo, hi = min(lo, e.d), max(hi, e.d)
		}
	}
	if len(live) == 0 {
		q.over = live
		return false
	}
	q.widen(lo, hi)
	q.over, q.spare = q.spare[:0], live
	for _, e := range live {
		q.push(e.v, e.d)
	}
	return true
}

// flush hands every vertex still queued to the next frontier.
func (q *bucketQueue) flush(next *bitset.Bitset) {
	for i := range q.ring {
		for _, v := range q.ring[i] {
			next.SetAtomic(int(v))
		}
	}
	for _, e := range q.over {
		next.SetAtomic(int(e.v))
	}
}
