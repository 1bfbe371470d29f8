package algo

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"ligra/internal/atomicx"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// MaxClusterSources is the number of simultaneous BFS sources one
// ClusterBFS sweep serves: one bit per source in the per-vertex uint64
// visit word.
const MaxClusterSources = 64

// ClusterBFSOptions configures a bit-parallel multi-source traversal.
type ClusterBFSOptions struct {
	// EdgeMap options forwarded to every round. DenseEarlyExit is
	// ignored: one new bit does not finish a destination, only all
	// len(sources) of them do.
	EdgeMap core.Options
	// WantLevels allocates the full per-(source, vertex) level matrix
	// (len(Sources) x n int32 values). Leave it off for large graphs and
	// use Probes to record levels only where they are needed.
	WantLevels bool
	// Probes lists vertices whose per-source levels are recorded even
	// without WantLevels — the cheap way to answer "distance from every
	// source to these few targets/landmarks" out of one sweep.
	Probes []uint32
}

// ClusterBFSResult carries the output of one bit-parallel multi-source
// sweep. All per-vertex slices have length n; all per-source slices have
// length len(Sources).
type ClusterBFSResult struct {
	// Sources are the BFS roots, bit i of every visit word belonging to
	// Sources[i]. Duplicates are allowed (each occupies its own bit).
	Sources []uint32
	// Visit[v] has bit i set iff Sources[i] reaches v.
	Visit []uint64
	// MaxLevel[v] is the largest BFS distance from any source that
	// reaches v (-1 when unreached) — the per-vertex quantity the radii
	// estimator keeps.
	MaxLevel []int32
	// Levels holds d(Sources[i], v) at Levels[i*n+v] (-1 unreached);
	// nil unless Options.WantLevels.
	Levels []int32
	// Probes echoes Options.Probes; ProbeLevels[j][i] is
	// d(Sources[i], Probes[j]) (-1 unreached).
	Probes      []uint32
	ProbeLevels [][]int32
	// Reached[i] is the number of vertices Sources[i] reaches, including
	// itself.
	Reached []int64
	// Depth[i] is the largest BFS level at which Sources[i] reached a new
	// vertex — exactly the Rounds a single-source BFS from Sources[i]
	// reports.
	Depth []int32
	// Rounds is the sweep's completed edgeMap rounds; on clean
	// termination it equals the largest level assigned (matching the
	// radii convention).
	Rounds int

	n          int
	probeIndex map[uint32]int
}

// LevelTo returns d(Sources[i], v) when it was recorded — via WantLevels,
// a probe on v, or v being a source — and -1 otherwise (unreached, or not
// recorded).
func (r *ClusterBFSResult) LevelTo(i int, v uint32) int32 {
	if r.Levels != nil {
		return r.Levels[i*r.n+int(v)]
	}
	if j, ok := r.probeIndex[v]; ok {
		return r.ProbeLevels[j][i]
	}
	if r.Sources[i] == v {
		return 0
	}
	return -1
}

// ClusterBFSCtx runs up to 64 breadth-first searches as one traversal:
// every vertex carries a uint64 visit word with one bit per source, and
// one edgeMap sweep propagates all bits simultaneously, so K concurrent
// single-source queries cost roughly one pass over the edge set instead
// of K (the trick §5.3 of the paper buries inside the eccentricity
// estimator, promoted to a reusable primitive).
//
// Cancellation is observed between rounds and at chunk granularity inside
// them. On interruption the partial result is returned with a *RoundError:
// every non-negative level is a genuine BFS distance, every set visit bit
// a genuine reachability, and per-source aggregates cover the rounds that
// completed.
func ClusterBFSCtx(ctx context.Context, g graph.View, sources []uint32, opts ClusterBFSOptions) (*ClusterBFSResult, error) {
	res, err := clusterSweep(ctx, g, sources, opts, true)
	return res, roundErr("cluster-bfs", res.Rounds, err)
}

// clusterSweep is the sweep shared by ClusterBFSCtx and the radii
// estimator (which wraps errors under its own algorithm name, and passes
// count false: it never reads Reached, so the sweep skips the pass that
// counts it). The returned error is the raw cause (ctx error or
// *parallel.PanicError).
func clusterSweep(ctx context.Context, g graph.View, sources []uint32, opts ClusterBFSOptions, count bool) (*ClusterBFSResult, error) {
	n := g.NumVertices()
	k := len(sources)
	if k > MaxClusterSources {
		return &ClusterBFSResult{n: n}, fmt.Errorf("algo: cluster-bfs takes at most %d sources, got %d", MaxClusterSources, k)
	}
	res := &ClusterBFSResult{
		Sources:  append([]uint32(nil), sources...),
		Visit:    make([]uint64, n),
		MaxLevel: make([]int32, n),
		Reached:  make([]int64, k),
		Depth:    make([]int32, k),
		Rounds:   0,
		n:        n,
	}
	err := fill(ctx, res.MaxLevel, int32(-1))
	if opts.WantLevels && k > 0 {
		res.Levels = make([]int32, k*n)
		err = cmp.Or(err, fill(ctx, res.Levels, int32(-1)))
	}
	if len(opts.Probes) > 0 {
		res.Probes = append([]uint32(nil), opts.Probes...)
		res.probeIndex = make(map[uint32]int, len(res.Probes))
		res.ProbeLevels = make([][]int32, len(res.Probes))
		for j, p := range res.Probes {
			if _, dup := res.probeIndex[p]; !dup {
				res.probeIndex[p] = j
			}
			row := make([]int32, k)
			for i := range row {
				row[i] = -1
			}
			res.ProbeLevels[j] = row
		}
		// Duplicate probes share one recorded row.
		for j, p := range res.Probes {
			res.ProbeLevels[j] = res.ProbeLevels[res.probeIndex[p]]
		}
	}
	for i, s := range sources {
		if int(s) >= n {
			return res, fmt.Errorf("algo: cluster-bfs source %d out of range (n=%d)", s, n)
		}
		res.Visit[s] |= 1 << uint(i)
		res.MaxLevel[s] = 0
		if res.Levels != nil {
			res.Levels[i*n+int(s)] = 0
		}
		if j, ok := res.probeIndex[s]; ok {
			res.ProbeLevels[j][i] = 0
		}
	}
	if k == 0 || err != nil {
		return res, cmp.Or(err, parallel.CtxErr(ctx))
	}

	// Settled (cur) and in-flight (next) visit words live in two arrays:
	// a pull round gathers only settled words, so they pack eight to a
	// cache line (DESIGN §9.3 has the measurement). cur starts as
	// res.Visit; a pull round swaps the two, so res.Visit is set to
	// whichever holds the settled words when the sweep stops.
	cur := res.Visit
	next := make([]uint64, n)
	// The initial frontier: the distinct source vertices.
	roots := make([]uint32, 0, k)
	for _, s := range sources {
		if !containsU32(roots, s) {
			roots = append(roots, s)
		}
	}

	// A vertex holding every source's bit is saturated: nothing more can
	// reach it. Each source owns one bit even when several share a vertex,
	// so the mask depends on k alone (k = 0 returned above).
	full := ^uint64(0)
	if k < MaxClusterSources {
		full = 1<<uint(k) - 1
	}

	// gained collects the sources that reached a new vertex this round,
	// folded into Depth once the round completes. A pull round's kernel
	// is its only writer, so after edgeMap a non-zero value also says the
	// round pulled.
	var gained atomic.Uint64
	var record func(v uint32, newBits uint64, r int32) // Radii records no levels
	if res.Levels != nil || len(res.Probes) > 0 {
		record = func(v uint32, newBits uint64, r int32) {
			if res.Levels != nil {
				for b := newBits; b != 0; b &= b - 1 {
					res.Levels[bits.TrailingZeros64(b)*n+int(v)] = r
				}
			}
			if pj, ok := res.probeIndex[v]; ok {
				row := res.ProbeLevels[pj]
				for b := newBits; b != 0; b &= b - 1 {
					row[bits.TrailingZeros64(b)] = r
				}
			}
		}
	}
	// Direction is edgeMap's rule. With no Cond it prices a pull round at
	// every in-edge, which holds while few vertices are saturated — all of
	// a grid sweep — and overstates a late round on a skewed graph, whose
	// pull skips saturated rows: there a mid-size frontier goes forward.
	emOpts := opts.EdgeMap
	emOpts.DenseEarlyExit = false // one new bit does not finish a vertex
	emOpts.RemoveDuplicates = true

	frontier := core.NewSparse(n, roots)
	iters := 0
	// The sweep's state on return: the settled words, and the reach
	// counts for callers that read them. An interrupted sweep still
	// publishes what it settled; under a cancelled ctx the counting itself
	// stops short, which the partial-result contract allows.
	finish := func() error {
		res.Visit = cur
		if !count {
			return nil
		}
		return finishAggregates(ctx, res)
	}
	fail := func(err error) (*ClusterBFSResult, error) {
		res.Rounds = iters
		_ = finish()
		return res, err
	}
	for r := int32(1); !frontier.IsEmpty(); r++ {
		gained.Store(0)
		funcs := clusterFuncs(cur, next, res.MaxLevel, full, r, &gained, record)
		out, err := core.EdgeMap(ctx, g, frontier, funcs, emOpts)
		if err != nil {
			return fail(err)
		}
		frontier = out
		if gained.Load() != 0 {
			// A pull round wrote every vertex's next word.
			cur, next = next, cur
		} else if err := foldRound(ctx, frontier, cur, next, res.MaxLevel, &gained, record, r); err != nil {
			return fail(err)
		}
		for b := gained.Load(); b != 0; b &= b - 1 {
			res.Depth[bits.TrailingZeros64(b)] = r
		}
		iters++
	}
	// The final iteration found no new vertices, so the largest level
	// assigned is iters-1 (radii's historical Rounds convention).
	res.Rounds = iters - 1
	return res, finish()
}

// foldRound moves a push round's gainers — the frontier it returned —
// from their in-flight words into their settled ones, setting their
// MaxLevel to the round, recording levels where asked and the gaining
// sources through gain. Each frontier vertex
// has one writer, and edgeMap's return orders the round's writes before
// these plain loads, as this pass's return orders its stores before the
// next round. A dense frontier is folded from its bitset words, so no
// round builds an ID array to fold.
func foldRound(ctx context.Context, frontier *core.VertexSubset, cur, next []uint64, maxLevel []int32, gained *atomic.Uint64, record func(uint32, uint64, int32), r int32) error {
	settle := func(v uint32) uint64 {
		nv := next[v]
		newBits := nv &^ cur[v]
		cur[v] = nv
		maxLevel[v] = r
		if record != nil {
			record(v, newBits, r)
		}
		return newBits
	}
	if frontier.HasDense() {
		fd, err := frontier.ToDense(ctx) // cached: converts nothing
		if err != nil {
			return err
		}
		fw := fd.Words()
		return parallel.ForRange(ctx, len(fw), func(lo, hi int) {
			var mask uint64
			for wi := lo; wi < hi; wi++ {
				for w := fw[wi]; w != 0; w &= w - 1 {
					mask |= settle(uint32(wi*64 + bits.TrailingZeros64(w)))
				}
			}
			gain(gained, mask)
		})
	}
	ids, err := frontier.ToSparse(ctx)
	if err != nil {
		return err
	}
	return parallel.ForRange(ctx, len(ids), func(lo, hi int) {
		var mask uint64
		for _, v := range ids[lo:hi] {
			mask |= settle(v)
		}
		gain(gained, mask)
	})
}

// gain adds newBits to the round's gaining sources. It ORs only bits the
// word lacks, so after the first few gains of a round the word is a
// read-shared line.
func gain(gained *atomic.Uint64, newBits uint64) {
	if newBits&^gained.Load() != 0 {
		gained.Or(newBits)
	}
}

// clusterFuncs is round r's pair of kernels over the settled (cur) and
// in-flight (next) visit words. They are built per round so that each
// holds the round's arrays and level by value. It is not inlined: the
// kernels compile in its small body, not in the sweep's large one, where
// the compiler would inline nothing into them.
//
//go:noinline
func clusterFuncs(cur, next []uint64, maxLevel []int32, full uint64, r int32, gained *atomic.Uint64, record func(uint32, uint64, int32)) core.EdgeFuncs {
	f := core.EdgeFuncs{
		// Push: OR s's settled bits, read once per row (cur is read-only
		// during a round), into each d's in-flight word.
		PushRow: func(s uint32, dsts []uint32, _ []int32, out []uint32) []uint32 {
			sBits := atomic.LoadUint64(&cur[s])
			for _, d := range dsts {
				dBits := cur[d] // likewise read-only
				// Skip the locked OR when every bit s carries is already at
				// d or en route there this round — on scale-free graphs
				// most in-edges of a hub arrive after the first few have
				// delivered the union.
				if sBits&^(dBits|atomic.LoadUint64(&next[d])) == 0 {
					continue
				}
				atomicx.OrUint64(&next[d], sBits|dBits)
				// Several sources may deliver to d in one round: the
				// sweep's RemoveDuplicates keeps it once in a sparse
				// output, and a forward round's output is a bitset.
				out = append(out, d)
			}
			return out
		},
		// Pull: OR the in-neighbours' settled words in a register and leave
		// the row once all k bits are present — for one source that is
		// BFS's first-parent exit, for 64 a row still ends the moment its
		// last missing bit arrives. The frontier is not consulted: only its
		// members can carry a bit d lacks (anything older was delivered the
		// round after its holder gained it), so the others' words change
		// nothing, and an unconditional load is cheaper than an
		// unpredictable branch per edge. Every vertex's next word is
		// written, saturated or not, so the round ends by swapping the two
		// arrays instead of folding its gainers one by one; d's level,
		// probes and Depth bits are recorded here, by d's one writer.
		// Recording levels wraps the kernel, so that the plain one makes no
		// call and its loops keep their values in registers. Saturation
		// is tested here, not in a Cond: on a raw CSR the driver calls no
		// Cond, and on other views a Cond is a second call per vertex. The
		// row is indexed by edge position rather than ranged over as a
		// sub-slice: ranged, the compiler spilled the row loop's index to
		// the stack on every edge.
		PullRows: func(lo uint32, offs []int64, srcs []uint32, _ []int32, _ []uint64) uint64 {
			have := cur[lo:][:len(offs)-1]
			nx := next[lo:][:len(have)]
			ml := maxLevel[lo:][:len(have)]
			var word, blockBits uint64
			for i, h := range have {
				acc := h
				if acc != full {
					for j, end := offs[i], offs[i+1]; j < end; j++ {
						if acc |= cur[srcs[j]]; acc == full {
							break
						}
					}
				}
				nx[i] = acc
				// Whether d gains is as likely as not from one vertex to
				// the next, so the level and the output bit are selects,
				// not branches.
				level, bit := ml[i], uint64(0)
				if acc != h {
					level, bit = r, 1
				}
				ml[i] = level
				word |= bit << (uint(i) & 63)
				blockBits |= acc &^ h
			}
			gain(gained, blockBits)
			return word
		},
	}
	if record != nil {
		pull := f.PullRows
		f.PullRows = func(lo uint32, offs []int64, srcs []uint32, wts []int32, frontier []uint64) uint64 {
			word := pull(lo, offs, srcs, wts, frontier)
			for w := word; w != 0; w &= w - 1 {
				// The kernel wrote next[d], never cur[d].
				d := lo + uint32(bits.TrailingZeros64(w))
				record(d, next[d]&^cur[d], r)
			}
			return word
		}
	}
	return f
}

// finishAggregates computes the per-source reach counts from the settled
// visit words, res.Visit (Depth is maintained round by round). Safe on
// partial sweeps; a cancelled aggregation leaves counts short, which the
// partial-result contract allows.
func finishAggregates(ctx context.Context, res *ClusterBFSResult) error {
	if len(res.Sources) == 0 {
		return nil
	}
	type counts struct {
		c [MaxClusterSources]int64
		_ [56]byte // keep workers off each other's cache lines
	}
	per := make([]counts, parallel.CtxProcs(ctx))
	err := parallel.ForWorkerChunks(ctx, len(res.Visit), 0, func(worker, _, lo, hi int) {
		c := &per[worker].c
		for _, w := range res.Visit[lo:hi] {
			for b := w; b != 0; b &= b - 1 {
				c[bits.TrailingZeros64(b)]++
			}
		}
	})
	for i := range res.Reached {
		var total int64
		for w := range per {
			total += per[w].c[i]
		}
		res.Reached[i] = total
	}
	return err
}

// containsU32 reports membership in a tiny slice (at most 64 sources, so
// a linear scan beats a map).
func containsU32(xs []uint32, v uint32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// roundLoad reads the shared round counter; it is only written between
// rounds, so this is a formality that keeps the race detector satisfied.
func roundLoad(r *int32) int32 { return atomic.LoadInt32(r) }
