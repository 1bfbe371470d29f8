package algo

import (
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

// ClusterBFS runs up to 64 breadth-first searches as one traversal: every
// vertex carries a uint64 visit word with one bit per source, and one
// edgeMap sweep propagates all bits simultaneously, so K concurrent
// single-source queries cost roughly one pass over the edge set instead
// of K (the trick §5.3 of the paper buries inside the eccentricity
// estimator, promoted to a reusable primitive). It panics on error; use
// ClusterBFSCtx to handle interruption.
func ClusterBFS(g graph.View, sources []uint32, opts ClusterBFSOptions) *ClusterBFSResult {
	res, err := ClusterBFSCtx(nil, g, sources, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// ClusterBFSCtx is ClusterBFS with cooperative cancellation, observed
// between rounds and at chunk granularity inside them. On interruption the
// partial result is returned with a *RoundError: every non-negative level
// is a genuine BFS distance, every set visit bit a genuine reachability,
// and per-source aggregates cover the rounds that completed.
func ClusterBFSCtx(ctx context.Context, g graph.View, sources []uint32, opts ClusterBFSOptions) (*ClusterBFSResult, error) {
	res, err := clusterSweep(ctx, g, sources, opts)
	return res, roundErr("cluster-bfs", res.Rounds, err)
}

// clusterSweep is the sweep shared by ClusterBFSCtx and the radii
// estimator (which wraps errors under its own algorithm name). The
// returned error is the raw cause (ctx error or *parallel.PanicError).
func clusterSweep(ctx context.Context, g graph.View, sources []uint32, opts ClusterBFSOptions) (*ClusterBFSResult, error) {
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
	parallel.Fill(res.MaxLevel, int32(-1))
	if opts.WantLevels && k > 0 {
		res.Levels = make([]int32, k*n)
		parallel.Fill(res.Levels, int32(-1))
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
	if k == 0 {
		res.Rounds = -1 // mirrors the historical empty-sample radii result
		return res, ctxErr(ctx)
	}

	// The settled (cur) and in-flight (next) visit words live interleaved
	// in one slice so an edge's destination touches a single cache line —
	// the sweep is memory-bound, and splitting them across two n-word
	// arrays measurably doubles the miss traffic. res.Visit is filled
	// from cur by finishAggregates.
	words := make([]visitPair, n)
	for _, s := range sources {
		words[s].cur = res.Visit[s]
	}
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

	round := int32(0)
	funcs := core.EdgeFuncs{
		// Push: OR s's settled bits into d's in-flight word.
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			sBits := atomic.LoadUint64(&words[s].cur) // read-only during a round
			p := &words[d]
			dBits := p.cur // likewise read-only
			// Skip the locked OR when every bit s carries is already at d
			// or en route there this round — on scale-free graphs most
			// in-edges of a hub arrive after the first few have delivered
			// the union.
			if sBits&^(dBits|atomic.LoadUint64(&p.next)) == 0 {
				return false
			}
			atomicx.OrUint64(&p.next, sBits|dBits)
			// Join the output frontier once per round.
			return claimRound(&res.MaxLevel[d], roundLoad(&round))
		},
		// Pull: OR the in-neighbours' settled words in a register and leave
		// the row once all k bits are present — for one source that is
		// BFS's first-parent exit, for 64 a row still ends the moment its
		// last missing bit arrives. The frontier is not consulted: only its
		// members can carry a bit d lacks (anything older was delivered the
		// round after its holder gained it), so the others' words change
		// nothing, and an unconditional load is cheaper than an
		// unpredictable branch per edge.
		PullRow: func(d uint32, srcs []uint32, _ []int32, _ []uint64) bool {
			p := &words[d]
			have := p.cur
			if have == full {
				return false
			}
			acc := have
			for _, s := range srcs {
				if acc |= words[s].cur; acc == full {
					break
				}
			}
			if acc == have {
				return false
			}
			p.next = acc
			res.MaxLevel[d] = roundLoad(&round)
			return true
		},
	}
	// Direction is edgeMap's ordinary rule (|U| + outDegrees(U) > m/20
	// goes dense, and dense pulls). No Cond: push rounds would pay it per
	// edge to learn what UpdateAtomic's first test already tells them, and
	// the pull kernel tests saturation itself before touching the row.
	emOpts := opts.EdgeMap
	emOpts.DenseEarlyExit = false // one new bit does not finish a vertex

	// Per-worker accumulators for "which sources gained ground this
	// round" — folded into Depth after each round.
	active := make([]uint64, parallel.Procs())

	frontier := core.NewSparse(n, roots)
	iters := 0
	for !frontier.IsEmpty() {
		atomic.AddInt32(&round, 1)
		next, err := core.EdgeMapCtx(ctx, g, frontier, funcs, emOpts)
		if err != nil {
			res.Rounds = iters
			finishAggregates(ctx, res, words)
			return res, err
		}
		frontier = next
		// Fold the round's new bits into the visit words (single writer
		// per frontier vertex), recording levels where asked.
		ids := frontier.ToSparse()
		r := roundLoad(&round)
		for w := range active {
			active[w] = 0
		}
		err = parallel.ForWorkerChunksCtx(ctx, len(ids), 0, func(worker, _, lo, hi int) {
			var mask uint64
			for j := lo; j < hi; j++ {
				v := ids[j]
				p := &words[v]
				nv := atomic.LoadUint64(&p.next)
				ov := atomic.LoadUint64(&p.cur)
				newBits := nv &^ ov
				atomic.StoreUint64(&p.cur, nv)
				mask |= newBits
				if res.Levels != nil {
					for b := newBits; b != 0; b &= b - 1 {
						res.Levels[bits.TrailingZeros64(b)*n+int(v)] = r
					}
				}
				if len(res.Probes) > 0 { // Radii asks for none: no map probe per frontier vertex
					if pj, ok := res.probeIndex[v]; ok {
						row := res.ProbeLevels[pj]
						for b := newBits; b != 0; b &= b - 1 {
							row[bits.TrailingZeros64(b)] = r
						}
					}
				}
			}
			active[worker] |= mask
		})
		if err != nil {
			res.Rounds = iters
			finishAggregates(ctx, res, words)
			return res, err
		}
		var roundMask uint64
		for _, m := range active {
			roundMask |= m
		}
		for b := roundMask; b != 0; b &= b - 1 {
			res.Depth[bits.TrailingZeros64(b)] = r
		}
		iters++
	}
	// The final iteration found no new vertices, so the largest level
	// assigned is iters-1 (radii's historical Rounds convention).
	res.Rounds = iters - 1
	finishAggregates(nil, res, words)
	return res, nil
}

// visitPair interleaves a vertex's settled and in-flight visit words so
// both land on the same cache line (see clusterSweep).
type visitPair struct{ cur, next uint64 }

// finishAggregates publishes the settled visit words into res.Visit and
// computes the per-source reach counts from them (Depth is maintained
// round by round). Safe on partial sweeps; a cancelled aggregation
// leaves counts short, which the partial-result contract allows.
func finishAggregates(ctx context.Context, res *ClusterBFSResult, words []visitPair) {
	if len(res.Sources) == 0 {
		return
	}
	type counts struct {
		c [MaxClusterSources]int64
		_ [56]byte // keep workers off each other's cache lines
	}
	per := make([]counts, parallel.Procs())
	_ = parallel.ForWorkerChunksCtx(ctx, len(words), 0, func(worker, _, lo, hi int) {
		c := &per[worker].c
		for v := lo; v < hi; v++ {
			w := words[v].cur
			res.Visit[v] = w
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

// claimRound sets *addr to round exactly once per round, returning whether
// this caller performed the transition.
func claimRound(addr *int32, round int32) bool {
	for {
		old := atomic.LoadInt32(addr)
		if old == round {
			return false // someone already claimed this round
		}
		if atomic.CompareAndSwapInt32(addr, old, round) {
			return true
		}
	}
}
