package algo

import (
	"errors"
	"math"
	"sort"
	"sync"

	"ligra/internal/graph"
)

// APPRResult carries an approximate personalized PageRank vector.
type APPRResult struct {
	// P maps vertices to their PPR mass (only touched vertices appear).
	P map[uint32]float64
	// R maps vertices to their residual mass.
	R map[uint32]float64
	// Pushes is the number of push operations performed (the work bound
	// of the local algorithm: O(1/(alpha*eps)) pushes independent of |V|).
	Pushes int
}

// APPR computes an approximate personalized PageRank vector from a seed
// vertex with the push algorithm of Andersen, Chung and Lang (FOCS 2006),
// the primitive parallelized in "Parallel Local Graph Clustering" (Shun,
// Roosta-Khorasani, Fountoulakis, Mahoney, VLDB 2016). Mass starts as a
// unit residual on the seed; while any vertex v has residual r(v) >=
// eps*deg(v), a push moves alpha*r(v) into p(v) and spreads the rest over
// v's neighbors. The returned vector is supported on a set whose size
// depends only on alpha and eps — the algorithm is local: it never
// touches the whole graph.
//
// alpha is the teleport probability (typical 0.1–0.2); eps the residual
// tolerance (typical 1e-4 .. 1e-7, smaller = larger support).
func APPR(g graph.View, seed uint32, alpha, eps float64) (*APPRResult, error) {
	sc, pushes, err := appr(g, seed, alpha, eps)
	if err != nil {
		return nil, err
	}
	defer sc.release()
	res := &APPRResult{P: make(map[uint32]float64), R: make(map[uint32]float64, len(sc.touched)), Pushes: pushes}
	for _, v := range sc.touched {
		if sc.p[v] != 0 {
			res.P[v] = sc.p[v]
		}
		if sc.r[v] != 0 {
			res.R[v] = sc.r[v]
		}
	}
	return res, nil
}

// localScratch is the per-vertex state of one local-clustering query:
// dense arrays indexed by vertex, so a push costs array stores instead of
// map probes, plus the list of vertices the query touched, so taking a
// scratch from the pool and giving it back costs the footprint of the
// query and not |V| — which is what keeps the algorithm local. Invariant:
// a pooled scratch is all-zero.
type localScratch struct {
	p, r    []float64
	flag    []byte
	touched []uint32 // every vertex with a non-zero p, r or flag, once
	queue   []uint32
}

// flag bits.
const (
	isTouched  = 1 << iota // v is in touched
	queued                 // v is in APPR's work queue
	inSweepSet             // v is in the sweep's current prefix
)

var localScratchPool sync.Pool

func getLocalScratch(n int) *localScratch {
	if sc, ok := localScratchPool.Get().(*localScratch); ok && len(sc.flag) >= n {
		return sc
	}
	return &localScratch{p: make([]float64, n), r: make([]float64, n), flag: make([]byte, n)}
}

// touch records that the query is about to give v non-zero state.
func (sc *localScratch) touch(v uint32) {
	if sc.flag[v] == 0 {
		sc.touched = append(sc.touched, v)
		sc.flag[v] = isTouched
	}
}

// release zeroes what the query touched and pools the scratch.
func (sc *localScratch) release() {
	for _, v := range sc.touched {
		sc.p[v], sc.r[v], sc.flag[v] = 0, 0, 0
	}
	sc.touched, sc.queue = sc.touched[:0], sc.queue[:0]
	localScratchPool.Put(sc)
}

// appr is APPR on a pooled dense scratch, which the caller releases: same
// queue discipline, push order and floating-point operations as the
// map-based formulation it replaces (kept as the reference in the tests).
func appr(g graph.View, seed uint32, alpha, eps float64) (*localScratch, int, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, 0, errors.New("algo: APPR alpha must be in (0, 1)")
	}
	if eps <= 0 {
		return nil, 0, errors.New("algo: APPR eps must be positive")
	}
	if int(seed) >= g.NumVertices() {
		return nil, 0, errors.New("algo: APPR seed out of range")
	}
	sc := getLocalScratch(g.NumVertices())
	if g.OutDegree(seed) == 0 {
		// Isolated seed: all mass stays there.
		sc.touch(seed)
		sc.p[seed] = 1
		return sc, 0, nil
	}

	p, r, flag := sc.p, sc.r, sc.flag
	sc.touch(seed)
	r[seed], flag[seed] = 1, flag[seed]|queued
	// Work queue of vertices whose residual exceeds the threshold.
	queue := append(sc.queue, seed)
	pushes := 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		flag[v] &^= queued
		deg := float64(g.OutDegree(v))
		rv := r[v]
		if deg == 0 || rv < eps*deg {
			continue
		}
		// Push: p(v) += alpha*r(v); spread (1-alpha)*r(v)/2 over the
		// neighbors, keep (1-alpha)*r(v)/2 at v (the lazy variant, which
		// guarantees convergence on bipartite-ish structures).
		pushes++
		p[v] += alpha * rv
		keep := (1 - alpha) * rv / 2
		share := (1 - alpha) * rv / 2 / deg
		r[v] = keep
		g.OutNeighbors(v, func(d uint32, _ int32) bool {
			sc.touch(d)
			r[d] += share
			if flag[d]&queued == 0 {
				dd := float64(g.OutDegree(d))
				if dd > 0 && r[d] >= eps*dd {
					queue = append(queue, d)
					flag[d] |= queued
				}
			}
			return true
		})
		// v may still exceed its own threshold after the lazy keep.
		if flag[v]&queued == 0 && r[v] >= eps*deg {
			queue = append(queue, v)
			flag[v] |= queued
		}
	}
	sc.queue = queue
	return sc, pushes, nil
}

// SweepCutResult carries the best-conductance cluster of a sweep.
type SweepCutResult struct {
	// Cluster is the vertex set achieving the best conductance, in sweep
	// (descending p/deg) order.
	Cluster []uint32
	// Conductance of the cluster: cut(S) / min(vol(S), vol(V\S)).
	Conductance float64
}

// SweepCut performs the standard sweep over a PPR vector: order touched
// vertices by p(v)/deg(v) descending, scan prefixes maintaining cut and
// volume incrementally, and return the prefix with minimum conductance —
// the local-clustering step that, with APPR, finds a low-conductance
// cluster around the seed (Andersen-Chung-Lang).
func SweepCut(g graph.View, p map[uint32]float64) *SweepCutResult {
	sc := getLocalScratch(g.NumVertices())
	defer sc.release()
	for v, pv := range p {
		sc.touch(v)
		sc.p[v] = pv
	}
	return sweep(g, sc)
}

// sweep is SweepCut over the PPR vector held in sc.
func sweep(g graph.View, sc *localScratch) *SweepCutResult {
	type scored struct {
		v     uint32
		score float64
	}
	order := make([]scored, 0, len(sc.touched))
	for _, v := range sc.touched {
		deg, pv := g.OutDegree(v), sc.p[v]
		if deg == 0 || pv <= 0 {
			continue
		}
		order = append(order, scored{v, pv / float64(deg)})
	}
	if len(order) == 0 {
		return &SweepCutResult{Conductance: 1}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].v < order[j].v
	})

	totalVol := g.NumEdges() // sum of degrees
	flag := sc.flag
	var vol, cut int64
	best := math.Inf(1)
	bestEnd := 0
	for i, s := range order {
		v := s.v
		deg := int64(g.OutDegree(v))
		vol += deg
		// Adding v: edges to members leave the cut, others join it.
		var toSet int64
		g.OutNeighbors(v, func(d uint32, _ int32) bool {
			if flag[d]&inSweepSet != 0 {
				toSet++
			}
			return true
		})
		cut += deg - 2*toSet
		flag[v] |= inSweepSet

		denom := vol
		if other := totalVol - vol; other < denom {
			denom = other
		}
		if denom <= 0 {
			continue
		}
		cond := float64(cut) / float64(denom)
		if cond < best {
			best = cond
			bestEnd = i + 1
		}
	}
	cluster := make([]uint32, bestEnd)
	for i := 0; i < bestEnd; i++ {
		cluster[i] = order[i].v
	}
	return &SweepCutResult{Cluster: cluster, Conductance: best}
}

// LocalCluster runs APPR from the seed and sweeps the result, returning
// a low-conductance cluster around the seed.
func LocalCluster(g graph.View, seed uint32, alpha, eps float64) (*SweepCutResult, error) {
	sc, _, err := appr(g, seed, alpha, eps)
	if err != nil {
		return nil, err
	}
	defer sc.release()
	return sweep(g, sc), nil
}
