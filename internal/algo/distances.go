package algo

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// distancesCtx answers the point queries, reach and landmarks: the
// distance in edges from source to each of targets, -1 where a target is
// unreachable. Where BFSLevelsCtx settles the whole graph, this search
// grows one frontier from source over g and one from each target the
// source side has not settled over the transpose (g itself when it is
// symmetric), and stops once every target is answered. Both sides run
// levelFuncs, BFSLevels' kernels.
//
// A step expands the source side unless its frontier is larger than the
// open targets times the smallest open target frontier; then that target
// side expands instead, since a source round serves every open target
// and a target round one. The sides of one target meet in the round in
// which one of them first claims a vertex the other has reached. Before
// that round no vertex lies within ks of source and kt of the target, so
// the distance exceeds ks + kt; the claim makes it one more, exactly the
// depth both sides have reached. A target side's frontier running empty
// proves its target unreachable, and so does the source side's for every
// open target.
//
// At most maxTargetSides target sides hold level arrays at once, and a
// side answered returns its array at once; an open target past the bound
// waits for a side to close, or for the source side to reach it.
//
// On interruption it returns a *RoundError whose Round counts the rounds
// both sides completed; each distance it holds is exact and every target
// it had not answered reads -1.
func distancesCtx(ctx context.Context, g graph.View, source uint32, targets []uint32, opts core.Options) ([]int32, error) {
	dist, _, err := distances(ctx, g, source, targets, opts)
	return dist, err
}

// distances is distancesCtx that also returns the most level arrays the
// search held at once.
func distances(ctx context.Context, g graph.View, source uint32, targets []uint32, opts core.Options) ([]int32, int, error) {
	n := g.NumVertices()
	dist := make([]int32, len(targets))
	var sides []*searchSide
	for i, t := range targets {
		dist[i] = -1
		if t == source {
			dist[i] = 0
			continue
		}
		if j := slices.IndexFunc(sides, func(s *searchSide) bool { return s.root == t }); j >= 0 {
			sides[j].answers = append(sides[j].answers, i)
			continue
		}
		sides = append(sides, &searchSide{root: t, frontier: core.NewSingle(n, t), answers: []int{i}})
	}

	if err := parallel.CtxErr(ctx); err != nil {
		return dist, 0, roundErr("distances", 0, err)
	}
	open := slices.Clone(sides)
	if len(open) == 0 {
		return dist, 0, nil
	}

	src := &searchSide{root: source, frontier: core.NewSingle(n, source)}
	defer func() {
		src.release(ctx)
		for _, s := range sides {
			s.release(ctx)
		}
	}()
	// held counts the level arrays out of levelPool: the source side's
	// and those of the target sides that have started and stay open.
	held, peak := 1, 1
	if err := src.start(ctx, n, nil); err != nil {
		return dist, peak, roundErr("distances", 0, err)
	}
	// finish answers side t and returns its levels.
	finish := func(t *searchSide, met bool) {
		t.answer(dist, met, src.depth)
		if t.levels != nil {
			t.release(ctx)
			held--
		}
	}

	gT := TransposeView(g)
	opts.DenseEarlyExit = true
	rounds := 0
	for len(open) > 0 {
		// The target side weighed against the source side: the smallest
		// frontier among the open sides that hold levels or may start.
		var t *searchSide
		for _, s := range open {
			if (s.levels != nil || held <= maxTargetSides) && (t == nil || s.frontier.Size() < t.frontier.Size()) {
				t = s
			}
		}
		if t != nil && src.frontier.Size() > len(open)*t.frontier.Size() {
			if t.levels == nil {
				held++
				peak = max(peak, held)
				if err := t.start(ctx, n, src.levels); err != nil {
					return dist, peak, roundErr("distances", rounds, err)
				}
			}
			if err := t.expand(ctx, gT, opts); err != nil {
				return dist, peak, roundErr("distances", rounds, err)
			}
			rounds++
			if t.met.Load() || t.frontier.IsEmpty() {
				finish(t, t.met.Load())
				open = slices.DeleteFunc(open, func(s *searchSide) bool { return s == t })
			}
			continue
		}
		if err := src.expand(ctx, g, opts); err != nil {
			return dist, peak, roundErr("distances", rounds, err)
		}
		rounds++
		if src.frontier.IsEmpty() {
			break // every open target reads -1
		}
		// A vertex the source side has just claimed and side t had
		// reached is in t's frontier: before this round no vertex lay
		// within reach of both.
		open = slices.DeleteFunc(open, func(t *searchSide) bool {
			met := t.reaches(src.levels)
			if met {
				finish(t, true)
			}
			return met
		})
	}
	return dist, peak, nil
}

// maxTargetSides bounds the target sides that hold level arrays at once,
// so a search holds at most 1 + maxTargetSides arrays of n levels where
// BFSLevels holds one.
const maxTargetSides = 4

// searchSide is one end of distancesCtx's search: the frontier of the
// vertices at depth from root, and levels, which holds every vertex the
// side has reached. A target side's levels stay nil until it first
// expands: its frontier is its root alone.
type searchSide struct {
	root     uint32
	levels   []int32
	frontier *core.VertexSubset
	depth    int32
	funcs    core.EdgeFuncs
	// met is set by a round that claims a vertex the source side has
	// reached.
	met atomic.Bool
	// answers are the indices of the targets this side answers.
	answers []int
	// claimed counts the vertices levels has set, and reached holds the
	// frontiers that set them while they are few enough for release to
	// reset one by one (nil after). dirty marks a round that
	// stopped part way, whose claims no frontier records.
	reached []*core.VertexSubset
	claimed int
	dirty   bool
}

// start gives the side its levels, with only its root reached, and its
// kernels, which test meets against other when it is set. The side's
// frontier is its root.
func (s *searchSide) start(ctx context.Context, n int, other []int32) error {
	levels, err := getLevels(ctx, n)
	s.levels = levels
	if err != nil {
		return err
	}
	levels[s.root] = 0
	s.reached, s.claimed = []*core.VertexSubset{s.frontier}, 1
	s.funcs = levelFuncs(levels, &s.depth, other, &s.met)
	return nil
}

// expand runs one round of the side over g.
func (s *searchSide) expand(ctx context.Context, g graph.View, opts core.Options) error {
	s.depth++
	next, err := core.EdgeMap(ctx, g, s.frontier, s.funcs, opts)
	if err != nil {
		s.depth--
		s.dirty = true
		return err
	}
	s.frontier = next
	s.claimed += next.Size()
	s.reached = append(s.reached, next)
	if s.wholeReset() {
		s.reached = nil // release fills the levels whole
	}
	return nil
}

// reaches reports whether a vertex of the side's frontier has a level in
// levels.
func (s *searchSide) reaches(levels []int32) bool {
	met := false
	s.frontier.ForEachSeq(func(v uint32) {
		met = met || levels[v] != -1
	})
	return met
}

// answer writes the side's distance, depth plus the source side's
// srcDepth when the sides met and -1 otherwise, to each of its targets.
func (s *searchSide) answer(dist []int32, met bool, srcDepth int32) {
	d := int32(-1)
	if met {
		d = s.depth + srcDepth
	}
	for _, i := range s.answers {
		dist[i] = d
	}
}

// release resets the side's levels to -1 and returns them to levelPool:
// vertex by vertex over the frontiers when the side reached few, whole
// otherwise. Levels a stopped round left dirty are dropped. The side
// holds no levels after.
func (s *searchSide) release(ctx context.Context) {
	levels, reached, whole := s.levels, s.reached, s.wholeReset()
	s.levels, s.reached = nil, nil
	if levels == nil || s.dirty {
		return
	}
	if whole {
		_ = fill(detached(ctx), levels, -1)
	} else {
		for _, f := range reached {
			f.ForEachSeq(func(v uint32) { levels[v] = -1 })
		}
	}
	full := levels[:cap(levels)]
	levelPool.Put(&full)
}

// wholeReset reports whether the side has reached so many vertices that
// release refills its levels whole.
func (s *searchSide) wholeReset() bool {
	return s.claimed > len(s.levels)/resetWhole
}

// resetWhole is the share of the vertices (one in resetWhole) past which
// release refills a level array whole instead of vertex by vertex: a
// 64-byte line holds 16 levels, so n/16 scattered writes touch about as
// many lines as the sequential fill of all n.
const resetWhole = 16

// levelPool holds level arrays that read -1 over their whole length, for
// the next point query on a graph as large. A search's far ends mostly
// reach a few vertices, so their arrays are reset in a fraction of the
// time a fill of n takes.
var levelPool sync.Pool

// getLevels returns n levels reading -1: a pooled array if one is large
// enough, else a new one, filled under ctx (whose interruption it
// returns, the fill finished).
func getLevels(ctx context.Context, n int) ([]int32, error) {
	if p, ok := levelPool.Get().(*[]int32); ok && len(*p) >= n {
		return (*p)[:n], nil
	}
	levels := make([]int32, n)
	return levels, fill(ctx, levels, -1)
}
