package delta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ligra/internal/algo"
	"ligra/internal/atomicx"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// errNotIncremental reports that the delta log cannot carry a previous
// result to the requested version (history gap, vertex growth, changed
// parameters) or that doing so would cost more than recomputing (deletes
// inside a component too large to re-propagate); callers fall back to a
// full recompute.
var errNotIncremental = errors.New("delta: incremental refresh not applicable")

// netOps collapses a replayed op sequence to its net effect: an edge
// toggled an odd number of times nets to its last op, an even number
// nets to nothing. Incremental algorithms care about presence at the
// two endpoints of the version range, not the path between them.
func netOps(ops []EdgeOp) (ins, del []EdgeOp) {
	last := make(map[uint64]int, len(ops)) // edge -> index of last op
	count := make(map[uint64]int, len(ops))
	for i, op := range ops {
		k := uint64(op.Src)<<32 | uint64(op.Dst)
		last[k] = i
		count[k]++
	}
	for k, i := range last {
		if count[k]%2 == 0 {
			continue
		}
		if ops[i].Del {
			del = append(del, ops[i])
		} else {
			ins = append(ins, ops[i])
		}
	}
	return ins, del
}

// maskedView restricts a view to the vertices marked in `in`: edges with
// either endpoint outside the set vanish. Degree methods are left
// unmasked (they only steer edgeMap's direction heuristics, where an
// overestimate is harmless).
type maskedView struct {
	graph.View
	in []bool
}

func (mv maskedView) OutNeighbors(v uint32, fn func(d uint32, w int32) bool) {
	if !mv.in[v] {
		return
	}
	mv.View.OutNeighbors(v, func(d uint32, w int32) bool {
		if !mv.in[d] {
			return true
		}
		return fn(d, w)
	})
}

func (mv maskedView) InNeighbors(s uint32, fn func(d uint32, w int32) bool) {
	if !mv.in[s] {
		return
	}
	mv.View.InNeighbors(s, func(d uint32, w int32) bool {
		if !mv.in[d] {
			return true
		}
		return fn(d, w)
	})
}

// IncrementalCC produces the connected-components labeling of g given
// the labeling prev of an earlier version and the effective ops between
// the two versions. It re-unions only delta-touched vertices: net
// inserts merge component labels through a union-find over label
// values, and net deletes re-propagate labels only inside the old
// components they touched (a masked traversal), so work scales with the
// affected components, not |V|+|E| — and when those components hold more
// than |E|/DefaultThresholdDenominator vertices + edges it returns
// errNotIncremental instead of re-propagating most of the graph. The
// result is bit-identical to a full ConnectedComponentsCtx run on g:
// labels stay "minimum vertex ID in the component". g must be symmetric
// (as connected components requires); prev may be shorter than
// g.NumVertices() when the delta grew the graph — new vertices start as
// their own component.
func IncrementalCC(ctx context.Context, g graph.View, prev []uint32, ops []EdgeOp, opts core.Options) (*algo.CCResult, error) {
	n := g.NumVertices()
	if len(prev) > n {
		return nil, fmt.Errorf("%w: previous labeling has %d vertices, view has %d", errNotIncremental, len(prev), n)
	}
	labels := make([]uint32, n)
	copy(labels, prev)
	for v := len(prev); v < n; v++ {
		labels[v] = uint32(v)
	}

	ins, del := netOps(ops)
	rounds := 0

	// Deletes can split a component, which label propagation cannot
	// undo locally — but only inside the old components the deleted
	// edges belonged to. Those components are closed under surviving
	// old edges (an old edge never leaves its component), so resetting
	// and re-propagating labels within that vertex set, on the new
	// graph, rebuilds exact min-vertex labels for every fragment.
	// Inserted edges crossing out of the set are handled by the union
	// phase below.
	if len(del) > 0 {
		// A net-deleted edge existed at the old version, so both of its
		// endpoints are within prev, and labels are vertex IDs below n.
		affectedLabel := make([]bool, n)
		for _, e := range del {
			affectedLabel[labels[e.Src]] = true
			affectedLabel[labels[e.Dst]] = true
		}
		// The re-propagation below is push-only, so it is attempted only
		// while push is the right direction for the region it starts from —
		// the paper's |U| + outDeg(U) rule with edgeMap's own constant, no
		// new one — and otherwise left to the full run, which pulls. The
		// two BENCH_baseline.json rows on either side of the budget, against
		// delta/components/full-overlay-deep = 5.0 ms: a 16-op batch cutting
		// 16 four-vertex components is refreshed in 0.38 ms
		// (delta/components/incremental-delete-small, 64 vertices in the
		// region); one deleting 4 edges inside the giant component puts
		// nearly the whole graph in the region and falls back, 5.2 ms
		// (delta/components/incremental-delete-giant) where re-propagating
		// it took 38.9 ms. rMat has nothing in between to place the constant
		// more finely.
		budget := g.NumEdges() / core.DefaultThresholdDenominator
		var affected []uint32
		var work int64
		for v := 0; v < n; v++ {
			if affectedLabel[labels[v]] {
				affected = append(affected, uint32(v))
				if work += 1 + int64(g.OutDegree(uint32(v))); work > budget {
					return nil, fmt.Errorf("%w: deletes touch components of more than |E|/%d vertices + edges",
						errNotIncremental, core.DefaultThresholdDenominator)
				}
			}
		}
		mask := make([]bool, n)
		for _, v := range affected {
			mask[v] = true
			labels[v] = v
		}
		var err error
		rounds, err = maskedCC(ctx, g, labels, affected, mask, opts)
		if err != nil {
			return &algo.CCResult{Labels: labels, Rounds: rounds}, err
		}
	}

	// Union phase: each net-inserted edge merges its endpoints' current
	// labels; min-label union keeps the "minimum vertex in component"
	// invariant, because min(min(A), min(B)) is the minimum of A∪B.
	if len(ins) > 0 {
		parent := make(map[uint32]uint32)
		var find func(x uint32) uint32
		find = func(x uint32) uint32 {
			p, ok := parent[x]
			if !ok || p == x {
				return x
			}
			r := find(p)
			parent[x] = r
			return r
		}
		for _, e := range ins {
			ra, rb := find(labels[e.Src]), find(labels[e.Dst])
			if ra == rb {
				continue
			}
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
		if len(parent) > 0 {
			// Resolve once, then relabel with a read-only map so the
			// pass can run in parallel.
			resolved := make(map[uint32]uint32, len(parent))
			for k := range parent {
				resolved[k] = find(k)
			}
			if err := parallel.For(ctx, n, func(i int) {
				if r, ok := resolved[labels[i]]; ok {
					labels[i] = r
				}
			}); err != nil {
				return &algo.CCResult{Labels: labels, Rounds: rounds}, err
			}
		}
	}

	components, err := parallel.CountFunc(ctx, n, func(i int) bool { return labels[i] == uint32(i) })
	return &algo.CCResult{Labels: labels, Components: components, Rounds: rounds}, err
}

// maskedCC runs min-label propagation over the subgraph induced by the
// masked vertex set, starting from self-labels. Sparse (push) rounds
// only, so cost scales with the masked subgraph, never with |V|.
func maskedCC(ctx context.Context, g graph.View, labels []uint32, affected []uint32, mask []bool, opts core.Options) (int, error) {
	n := g.NumVertices()
	mv := maskedView{View: g, in: mask}
	prev := make([]uint32, n)
	copy(prev, labels)

	update := func(s, d uint32, _ int32) bool {
		sid := atomic.LoadUint32(&labels[s])
		orig := atomic.LoadUint32(&labels[d])
		if atomicx.WriteMinUint32(&labels[d], sid) {
			return orig == prev[d]
		}
		return false
	}
	funcs := core.EdgeFuncs{Update: update, UpdateAtomic: update}
	opts.Mode = core.ForceSparse
	opts.RemoveDuplicates = true

	ids := make([]uint32, len(affected))
	copy(ids, affected)
	frontier := core.NewSparse(n, ids)
	rounds := 0
	for !frontier.IsEmpty() {
		if err := core.VertexMap(ctx, frontier, func(v uint32) { prev[v] = labels[v] }); err != nil {
			return rounds, err
		}
		next, err := core.EdgeMap(ctx, mv, frontier, funcs, opts)
		if err != nil {
			return rounds, err
		}
		frontier = next
		rounds++
	}
	return rounds, nil
}

// IncrementalPageRank refreshes a PageRank-Delta result after a delta
// batch: instead of restarting from the uniform vector, it warm-starts
// from the previous ranks and seeds the delta-propagation frontier with
// the exact contribution changes at the dirtied vertices — a dirty
// source u used to send prev[u]/deg_old(u) along each old out-edge and
// now sends prev[u]/deg_new(u) along each new one; the per-destination
// differences are the initial residual. Convergence then proceeds
// exactly as algo.PageRankDeltaCtx (same fixpoint, no dangling-mass
// term), so the refreshed ranks agree with a full recompute to within
// the combined stopping tolerances. The op list must not grow the graph
// (callers fall back to a full run when |V| changes).
func IncrementalPageRank(ctx context.Context, g graph.View, prevRanks []float64, ops []EdgeOp, opts algo.PageRankOptions, delta float64) (*algo.PageRankResult, error) {
	n := g.NumVertices()
	if n != len(prevRanks) {
		return nil, fmt.Errorf("%w: vertex count changed (%d -> %d)", errNotIncremental, len(prevRanks), n)
	}
	if n == 0 {
		return &algo.PageRankResult{}, nil
	}
	if opts.Damping <= 0 || opts.Damping >= 1 {
		opts.Damping = 0.85
	}
	if opts.MaxIterations <= 0 && opts.Epsilon <= 0 {
		opts.MaxIterations = 100
	}
	if delta <= 0 {
		delta = 1e-2
	}

	ins, del := netOps(ops)
	insBySrc := make(map[uint32]map[uint32]bool)
	for _, e := range ins {
		m, ok := insBySrc[e.Src]
		if !ok {
			m = make(map[uint32]bool)
			insBySrc[e.Src] = m
		}
		m[e.Dst] = true
	}
	delBySrc := make(map[uint32][]uint32)
	for _, e := range del {
		delBySrc[e.Src] = append(delBySrc[e.Src], e.Dst)
	}
	dirty := make(map[uint32]struct{}, len(insBySrc)+len(delBySrc))
	for u := range insBySrc {
		dirty[u] = struct{}{}
	}
	for u := range delBySrc {
		dirty[u] = struct{}{}
	}

	p := make([]float64, n)
	copy(p, prevRanks)
	deltas := make([]float64, n)

	for u := range dirty {
		degNew := g.OutDegree(u)
		insSet := insBySrc[u]
		dels := delBySrc[u]
		degOld := degNew - len(insSet) + len(dels)
		var cNew, cOld float64
		if degNew > 0 {
			cNew = prevRanks[u] / float64(degNew)
		}
		if degOld > 0 {
			cOld = prevRanks[u] / float64(degOld)
		}
		g.OutNeighbors(u, func(d uint32, _ int32) bool {
			if insSet[d] {
				deltas[d] += opts.Damping * cNew
			} else {
				deltas[d] += opts.Damping * (cNew - cOld)
			}
			return true
		})
		for _, d := range dels {
			deltas[d] -= opts.Damping * cOld
		}
	}

	errL1 := 0.0
	for i := 0; i < n; i++ {
		if deltas[i] != 0 {
			p[i] += deltas[i]
			errL1 += math.Abs(deltas[i])
		}
	}

	// From here the loop is PageRankDeltaCtx's steady-state iteration:
	// frontier members push deltas[v]/deg(v), destinations fold the
	// damped sum into their rank, and a vertex stays active while its
	// rank moved by more than delta*p[v].
	deltaDiv := make([]float64, n)
	nghSum := atomicx.NewFloat64Slice(n)
	funcs := core.EdgeFuncs{
		Update: func(s, d uint32, _ int32) bool {
			nghSum.AddNonAtomic(int(d), deltaDiv[s])
			return true
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			nghSum.Add(int(d), deltaDiv[s])
			return true
		},
	}
	emOpts := opts.EdgeMap
	emOpts.NoOutput = true

	active := func(v uint32) bool { return math.Abs(deltas[v]) > delta*p[v] }
	iters := 0
	partial := func(err error) (*algo.PageRankResult, error) {
		return &algo.PageRankResult{Ranks: p, Iterations: iters, Err: errL1}, err
	}
	frontier, err := core.NewFromFunc(ctx, n, active)
	if err != nil {
		return partial(err)
	}
	for !frontier.IsEmpty() {
		if opts.MaxIterations > 0 && iters >= opts.MaxIterations {
			break
		}
		if opts.Epsilon > 0 && errL1 < opts.Epsilon {
			break
		}
		if err := parallel.CtxErr(ctx); err != nil {
			return partial(err)
		}
		if err := core.VertexMap(ctx, frontier, func(v uint32) {
			if deg := g.OutDegree(v); deg > 0 {
				deltaDiv[v] = deltas[v] / float64(deg)
			} else {
				deltaDiv[v] = 0
			}
		}); err != nil {
			return partial(err)
		}
		if err := parallel.For(ctx, n, func(i int) { nghSum.StoreNonAtomic(i, 0) }); err != nil {
			return partial(err)
		}
		if _, err := core.EdgeMap(ctx, g, frontier, funcs, emOpts); err != nil {
			return partial(err)
		}
		// The commit runs to its end under ctx's worker cap without its
		// cancellation (as algo.PageRankDeltaCtx's does): the partial
		// result's ranks are those of the last completed iteration.
		if errL1, err = parallel.SumFunc(context.WithoutCancel(ctx), n, func(i int) float64 {
			change := opts.Damping * nghSum.LoadNonAtomic(i)
			deltas[i] = change
			p[i] += change
			return math.Abs(change)
		}); err != nil {
			return partial(err)
		}
		if frontier, err = core.NewFromFunc(ctx, n, active); err != nil {
			return partial(err)
		}
		iters++
	}
	return &algo.PageRankResult{Ranks: p, Iterations: iters, Err: errL1}, nil
}

// ccTracker memoizes the last connected-components labeling so the next
// refresh can replay the delta log instead of recomputing.
type ccTracker struct {
	mu         sync.Mutex
	valid      bool
	version    uint64
	labels     []uint32
	components int
}

// prTracker memoizes the last PageRank-Delta ranks, fingerprinted by
// the parameters they were computed with.
type prTracker struct {
	mu          sync.Mutex
	valid       bool
	version     uint64
	fingerprint string
	ranks       []float64
	errL1       float64
}

func (s *Store) countRefresh(incremental bool) {
	s.mu.Lock()
	if incremental {
		s.stats.IncrementalRuns++
	} else {
		s.stats.FullRuns++
	}
	s.mu.Unlock()
}

// RefreshCC returns the connected-components result for the pinned
// snapshot, replaying the delta log over the previous labeling when
// possible (bit-identical to a full run; see IncrementalCC) and falling
// back to algo.ConnectedComponentsCtx otherwise. The boolean reports
// whether the incremental path served the result.
func (s *Store) RefreshCC(ctx context.Context, pin *Pin, opts core.Options) (*algo.CCResult, bool, error) {
	t := &s.cc
	t.mu.Lock()
	defer t.mu.Unlock()
	v, want := pin.View(), pin.Version()
	n := v.NumVertices()

	if t.valid && t.version == want && len(t.labels) == n {
		s.countRefresh(true)
		return &algo.CCResult{Labels: t.labels, Components: t.components}, true, nil
	}
	if t.valid && t.version < want && v.Symmetric() {
		if ops, ok := s.opsBetween(t.version, want); ok {
			res, err := IncrementalCC(ctx, v, t.labels, ops, opts)
			if err == nil {
				t.version, t.labels, t.components = want, res.Labels, res.Components
				s.countRefresh(true)
				return res, true, nil
			}
			if !errors.Is(err, errNotIncremental) {
				// Cancellation mid-replay: surface the partial result
				// under the usual partial-result contract, without
				// advancing the tracker.
				s.countRefresh(true)
				return res, true, err
			}
		}
	}

	res, err := algo.ConnectedComponentsCtx(ctx, v, opts)
	if err == nil && want >= t.version {
		t.valid, t.version = true, want
		t.labels, t.components = res.Labels, res.Components
	}
	s.countRefresh(false)
	return res, false, err
}

// RefreshPageRankDelta is RefreshCC for PageRank-Delta: warm-start plus
// dirty-vertex reseeding when the history covers the gap and the vertex
// count is unchanged, full PageRankDeltaCtx otherwise.
func (s *Store) RefreshPageRankDelta(ctx context.Context, pin *Pin, opts algo.PageRankOptions, delta float64) (*algo.PageRankResult, bool, error) {
	t := &s.pr
	t.mu.Lock()
	defer t.mu.Unlock()
	v, want := pin.View(), pin.Version()
	n := v.NumVertices()
	fp := fmt.Sprintf("%g/%g/%d/%g", opts.Damping, opts.Epsilon, opts.MaxIterations, delta)

	if t.valid && t.fingerprint == fp && t.version == want && len(t.ranks) == n {
		s.countRefresh(true)
		return &algo.PageRankResult{Ranks: t.ranks, Err: t.errL1}, true, nil
	}
	if t.valid && t.fingerprint == fp && t.version < want && len(t.ranks) == n {
		if ops, ok := s.opsBetween(t.version, want); ok {
			res, err := IncrementalPageRank(ctx, v, t.ranks, ops, opts, delta)
			if err == nil {
				t.version, t.ranks, t.errL1 = want, res.Ranks, res.Err
				s.countRefresh(true)
				return res, true, nil
			}
			if !errors.Is(err, errNotIncremental) {
				s.countRefresh(true)
				return res, true, err
			}
		}
	}

	res, err := algo.PageRankDeltaCtx(ctx, v, opts, delta)
	if err == nil && want >= t.version {
		t.valid, t.version, t.fingerprint = true, want, fp
		t.ranks, t.errL1 = res.Ranks, res.Err
	}
	s.countRefresh(false)
	return res, false, err
}
