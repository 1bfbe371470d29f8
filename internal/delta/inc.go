package delta

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ligra/internal/algo"
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

// IncrementalCC produces the connected-components labeling of g given
// the labeling prev of an earlier version and the effective ops between
// the two versions. It re-unions only delta-touched vertices: net
// inserts merge component labels through a union-find over label
// values, and net deletes re-propagate labels only inside the old
// components they touched (algo.PropagateLabelsCtx confined to them, in
// push rounds), so work scales with the
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
	if !g.Symmetric() {
		return nil, fmt.Errorf("%w: components needs a symmetric graph", errNotIncremental)
	}
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
		// new one — and otherwise left to the full run, which pulls. On
		// scale-16 rMat, against a full run over a deep overlay of 5.0 ms,
		// the two cases on either side of the budget were: a 16-op batch
		// cutting 16 four-vertex components is refreshed in 0.38 ms (64
		// vertices in the region); one deleting 4 edges inside the giant
		// component puts nearly the whole graph in the region and falls
		// back, 5.2 ms, where re-propagating it took 38.9 ms. rMat has
		// nothing in between to place the constant more finely.
		budget := g.NumEdges() / core.DefaultThresholdDenominator
		var affected []uint32
		var work int64
		for v := 0; v < n; v++ {
			if affectedLabel[labels[v]] {
				if work += 1 + int64(g.OutDegree(uint32(v))); work > budget {
					return nil, fmt.Errorf("%w: deletes touch components of more than |E|/%d vertices + edges",
						errNotIncremental, core.DefaultThresholdDenominator)
				}
				affected = append(affected, uint32(v))
				labels[v] = uint32(v)
			}
		}
		// The region is reset to self-labels and seeds the propagation;
		// within keeps it there, which needs push rounds.
		within := func(v uint32) bool { return int(v) < len(prev) && affectedLabel[prev[v]] }
		opts.Mode = core.Sparse
		var err error
		rounds, err = algo.PropagateLabelsCtx(ctx, g, labels, core.NewSparse(n, affected), within, opts)
		if err != nil {
			return &algo.CCResult{Labels: labels, Rounds: rounds}, err
		}
	}

	// Union phase: each net-inserted edge merges its endpoints' current
	// labels; min-label union keeps the "minimum vertex in component"
	// invariant, because min(min(A), min(B)) is the minimum of A∪B.
	var err error
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
			err = parallel.For(ctx, n, func(i int) {
				if r, ok := resolved[labels[i]]; ok {
					labels[i] = r
				}
			})
		}
	}

	components := 0
	if err == nil {
		components, err = parallel.CountFunc(ctx, n, func(i int) bool { return labels[i] == uint32(i) })
	}
	if err != nil {
		err = &algo.RoundError{Algo: "components", Round: rounds, Err: err}
	}
	return &algo.CCResult{Labels: labels, Components: components, Rounds: rounds}, err
}

// IncrementalPageRank refreshes a PageRank-Delta result after a delta
// batch: instead of restarting from the uniform vector, it warm-starts
// from the previous ranks and seeds the delta-propagation frontier with
// the exact contribution changes at the dirtied vertices — a dirty
// source u used to send prev[u]/deg_old(u) along each old out-edge and
// now sends prev[u]/deg_new(u) along each new one; the per-destination
// differences are the initial residual. algo.PageRankDeltaFromCtx then
// runs PageRankDeltaCtx's loop from there (same fixpoint, no dangling-mass
// term), so the refreshed ranks agree with a full recompute to within
// the combined stopping tolerances. The op list must not grow the graph
// (callers fall back to a full run when |V| changes).
func IncrementalPageRank(ctx context.Context, g graph.View, prevRanks []float64, ops []EdgeOp, opts algo.PageRankOptions, delta float64) (*algo.PageRankResult, error) {
	n := g.NumVertices()
	if n != len(prevRanks) {
		return nil, fmt.Errorf("%w: vertex count changed (%d -> %d)", errNotIncremental, len(prevRanks), n)
	}
	damping := opts.Damping
	if damping <= 0 || damping >= 1 {
		damping = 0.85 // PageRankDeltaFromCtx's default, which the seed must share
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

	deltas := make([]float64, n)
	var buf graph.Row
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
		ts, _ := g.OutRow(u, &buf)
		for _, d := range ts {
			if insSet[d] {
				deltas[d] += damping * cNew
			} else {
				deltas[d] += damping * (cNew - cOld)
			}
		}
		for _, d := range dels {
			deltas[d] -= damping * cOld
		}
	}

	ranks := make([]float64, n)
	for i, d := range deltas {
		ranks[i] = prevRanks[i] + d
	}
	return algo.PageRankDeltaFromCtx(ctx, g, opts, delta, ranks, deltas)
}

// tracker memoizes one refresher's last result, with the parameters it
// was computed under, so the next refresh can replay the delta log
// instead of recomputing.
type tracker[R any] struct {
	mu      sync.Mutex
	valid   bool
	version uint64
	key     string
	last    R
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

// refresh is both refreshers' memo → replay → fallback path. At the
// tracked version it replies memo(last); past it, when the history still
// covers the gap, it replays the ops since over last; otherwise, or when
// replay reports errNotIncremental, it runs full. A completed result
// advances the tracker. A cancelled replay surfaces its partial result
// under the usual partial-result contract, without advancing it. The
// boolean reports whether the memo or the replay served the result.
func refresh[R any](s *Store, t *tracker[R], pin *Pin, key string, memo func(R) R,
	replay func(prev R, ops []EdgeOp) (R, error), full func() (R, error)) (R, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	want := pin.Version()
	if t.valid && t.key == key && t.version == want {
		s.countRefresh(true)
		return memo(t.last), true, nil
	}
	if t.valid && t.key == key && t.version < want {
		if ops, ok := s.opsBetween(t.version, want); ok {
			res, err := replay(t.last, ops)
			if !errors.Is(err, errNotIncremental) {
				if err == nil {
					t.version, t.last = want, res
				}
				s.countRefresh(true)
				return res, true, err
			}
		}
	}
	res, err := full()
	if err == nil && want >= t.version {
		t.valid, t.version, t.key, t.last = true, want, key, res
	}
	s.countRefresh(false)
	return res, false, err
}

// RefreshCC returns the connected-components result for the pinned
// snapshot, replaying the delta log over the previous labeling when
// possible (bit-identical to a full run; see IncrementalCC) and falling
// back to algo.ConnectedComponentsCtx otherwise. The boolean reports
// whether the incremental path served the result; a memoized reply
// reports 0 rounds.
func (s *Store) RefreshCC(ctx context.Context, pin *Pin, opts core.Options) (*algo.CCResult, bool, error) {
	v := pin.View()
	return refresh(s, &s.cc, pin, "",
		func(r *algo.CCResult) *algo.CCResult {
			return &algo.CCResult{Labels: r.Labels, Components: r.Components}
		},
		func(prev *algo.CCResult, ops []EdgeOp) (*algo.CCResult, error) {
			return IncrementalCC(ctx, v, prev.Labels, ops, opts)
		},
		func() (*algo.CCResult, error) { return algo.ConnectedComponentsCtx(ctx, v, opts) })
}

// RefreshPageRankDelta is RefreshCC for PageRank-Delta: warm-start plus
// dirty-vertex reseeding when the history covers the gap and the vertex
// count is unchanged, full PageRankDeltaCtx otherwise. The memo is keyed
// by the parameters; a memoized reply reports 0 iterations.
func (s *Store) RefreshPageRankDelta(ctx context.Context, pin *Pin, opts algo.PageRankOptions, delta float64) (*algo.PageRankResult, bool, error) {
	v := pin.View()
	return refresh(s, &s.pr, pin, fmt.Sprintf("%g/%g/%d/%g", opts.Damping, opts.Epsilon, opts.MaxIterations, delta),
		func(r *algo.PageRankResult) *algo.PageRankResult {
			return &algo.PageRankResult{Ranks: r.Ranks, Err: r.Err}
		},
		func(prev *algo.PageRankResult, ops []EdgeOp) (*algo.PageRankResult, error) {
			return IncrementalPageRank(ctx, v, prev.Ranks, ops, opts, delta)
		},
		func() (*algo.PageRankResult, error) { return algo.PageRankDeltaCtx(ctx, v, opts, delta) })
}
