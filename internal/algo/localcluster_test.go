package algo

import (
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"ligra/internal/gen"
	"ligra/internal/graph"
)

// barbell builds two k-cliques joined by a single bridge edge.
func barbell(t *testing.T, k int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			edges = append(edges, graph.Edge{Src: uint32(a), Dst: uint32(b)})
			edges = append(edges, graph.Edge{Src: uint32(k + a), Dst: uint32(k + b)})
		}
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: uint32(k)})
	g, err := graph.FromEdges(2*k, edges, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAPPRMassConservation(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "tree"} {
		g := testGraphs(t)[gname]
		res, err := APPR(g, 0, 0.15, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		var mass float64
		for _, v := range res.P {
			mass += v
		}
		for _, v := range res.R {
			mass += v
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Errorf("%s: total mass %v, want 1", gname, mass)
		}
		// Residual invariant: r(v) < eps*deg(v) for every touched vertex.
		for v, rv := range res.R {
			if deg := float64(g.OutDegree(v)); deg > 0 && rv >= 1e-5*deg {
				t.Errorf("%s: residual %v at %d exceeds eps*deg %v", gname, rv, v, 1e-5*deg)
			}
		}
		if res.Pushes == 0 {
			t.Errorf("%s: no pushes performed", gname)
		}
	}
}

func TestAPPRIsLocal(t *testing.T) {
	// The support must not grow with the graph: the same seed/eps on a
	// much larger graph of the same family touches a similar set size.
	small, err := gen.Grid3D(10)
	if err != nil {
		t.Fatal(err)
	}
	large, err := gen.Grid3D(20)
	if err != nil {
		t.Fatal(err)
	}
	a, err := APPR(small, 0, 0.2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := APPR(large, 0, 0.2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.P) > 4*len(a.P)+16 {
		t.Errorf("support grew with graph size: %d vs %d", len(b.P), len(a.P))
	}
	if len(b.P) >= large.NumVertices()/2 {
		t.Errorf("APPR touched half the graph (%d of %d)", len(b.P), large.NumVertices())
	}
}

func TestAPPRErrors(t *testing.T) {
	g := testGraphs(t)["path"]
	if _, err := APPR(g, 0, 0, 1e-4); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := APPR(g, 0, 1.5, 1e-4); err == nil {
		t.Error("alpha>1 accepted")
	}
	if _, err := APPR(g, 0, 0.2, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := APPR(g, 1<<30, 0.2, 1e-4); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

func TestAPPRIsolatedSeed(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 1, Dst: 2}}, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := APPR(g, 0, 0.2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if res.P[0] != 1 || len(res.R) != 0 {
		t.Errorf("isolated seed: %+v", res)
	}
}

func TestLocalClusterFindsPlantedClique(t *testing.T) {
	const k = 12
	g := barbell(t, k)
	res, err := LocalCluster(g, 3, 0.15, 1e-7) // seed inside clique A
	if err != nil {
		t.Fatal(err)
	}
	// The best cut is the bridge: conductance 1/vol(clique) — tiny.
	inA := 0
	for _, v := range res.Cluster {
		if v < k {
			inA++
		}
	}
	if inA != k || len(res.Cluster) != k {
		t.Errorf("cluster = %v (want exactly clique A)", res.Cluster)
	}
	wantCond := 1.0 / float64(k*(k-1)+1)
	if math.Abs(res.Conductance-wantCond) > 1e-9 {
		t.Errorf("conductance = %v, want %v", res.Conductance, wantCond)
	}
}

func TestSweepCutEmpty(t *testing.T) {
	g := testGraphs(t)["path"]
	res := SweepCut(g, map[uint32]float64{})
	if len(res.Cluster) != 0 || res.Conductance != 1 {
		t.Errorf("empty sweep = %+v", res)
	}
}

func TestLocalClusterOnPowerLaw(t *testing.T) {
	g := testGraphs(t)["rmat"]
	res, err := LocalCluster(g, pickFirstNonZeroDeg(g), 0.15, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cluster) == 0 {
		t.Fatal("empty cluster")
	}
	if res.Conductance < 0 || res.Conductance > 1 {
		t.Errorf("conductance out of range: %v", res.Conductance)
	}
}

func pickFirstNonZeroDeg(g graph.View) uint32 {
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(uint32(v)) > 0 {
			return uint32(v)
		}
	}
	return 0
}

// refAPPR and refSweepCut are the map-based formulation APPR and SweepCut
// had before they moved to pooled dense scratch, kept as the reference the
// dense one must reproduce: same queue discipline, same floating-point
// operations in the same order.
func refAPPR(g graph.View, seed uint32, alpha, eps float64) *APPRResult {
	if g.OutDegree(seed) == 0 {
		// Isolated seed: all mass stays there.
		return &APPRResult{P: map[uint32]float64{seed: 1}, R: map[uint32]float64{}}
	}

	p := make(map[uint32]float64)
	r := map[uint32]float64{seed: 1}
	// Work queue of vertices whose residual exceeds the threshold.
	queue := []uint32{seed}
	inQueue := map[uint32]bool{seed: true}
	pushes := 0

	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
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
			r[d] += share
			if !inQueue[d] {
				dd := float64(g.OutDegree(d))
				if dd > 0 && r[d] >= eps*dd {
					queue = append(queue, d)
					inQueue[d] = true
				}
			}
			return true
		})
		// v may still exceed its own threshold after the lazy keep.
		if !inQueue[v] && r[v] >= eps*deg {
			queue = append(queue, v)
			inQueue[v] = true
		}
	}
	return &APPRResult{P: p, R: r, Pushes: pushes}
}

func refSweepCut(g graph.View, p map[uint32]float64) *SweepCutResult {
	type scored struct {
		v     uint32
		score float64
	}
	order := make([]scored, 0, len(p))
	for v, pv := range p {
		deg := g.OutDegree(v)
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
	inSet := make(map[uint32]bool, len(order))
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
			if inSet[d] {
				toSet++
			}
			return true
		})
		cut += deg - 2*toSet
		inSet[v] = true

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

// TestLocalClusterMatchesMapReference: on a power-law graph, a mesh and
// two cliques joined by a bridge, from several seeds, the dense-scratch
// APPR performs the same pushes and leaves the same p and r as the map
// reference, and the sweep picks the same cluster with the same
// conductance — through the public maps, and through LocalCluster's
// map-free path.
func TestLocalClusterMatchesMapReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": testGraphs(t)["rmat"], "grid": testGraphs(t)["grid3d"], "two-cliques": barbell(t, 12),
	}
	for gname, g := range graphs {
		for _, seed := range []uint32{0, 3, 17, uint32(g.NumVertices() - 1)} {
			for _, eps := range []float64{1e-4, 1e-7} {
				want := refAPPR(g, seed, 0.15, eps)
				got, err := APPR(g, seed, 0.15, eps)
				if err != nil {
					t.Fatal(err)
				}
				if got.Pushes != want.Pushes || !maps.Equal(got.P, want.P) || !maps.Equal(got.R, want.R) {
					t.Fatalf("%s seed %d eps %g: APPR pushes %d (|p| %d, |r| %d), reference %d (%d, %d)", gname, seed, eps,
						got.Pushes, len(got.P), len(got.R), want.Pushes, len(want.P), len(want.R))
				}
				wantCut := refSweepCut(g, want.P)
				lc, err := LocalCluster(g, seed, 0.15, eps)
				if err != nil {
					t.Fatal(err)
				}
				for name, cut := range map[string]*SweepCutResult{"SweepCut": SweepCut(g, got.P), "LocalCluster": lc} {
					if cut.Conductance != wantCut.Conductance || !slices.Equal(cut.Cluster, wantCut.Cluster) {
						t.Fatalf("%s seed %d eps %g: %s found %d vertices at %v, reference %d at %v", gname, seed, eps,
							name, len(cut.Cluster), cut.Conductance, len(wantCut.Cluster), wantCut.Conductance)
					}
				}
			}
		}
	}
}

// TestLocalScratchReleasedZero: the pool's invariant. A query leaves the
// scratch it used all-zero, whatever it touched, so the next one starts
// clean without clearing |V| entries.
func TestLocalScratchReleasedZero(t *testing.T) {
	g := testGraphs(t)["rmat"]
	sc, _, err := appr(g, 0, 0.15, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.touched) == 0 {
		t.Fatal("query touched nothing")
	}
	sweep(g, sc)
	sc.release()
	if len(sc.touched) != 0 || len(sc.queue) != 0 {
		t.Errorf("released scratch keeps %d touched, %d queued", len(sc.touched), len(sc.queue))
	}
	for v := range sc.flag {
		if sc.p[v] != 0 || sc.r[v] != 0 || sc.flag[v] != 0 {
			t.Fatalf("released scratch: vertex %d holds p=%v r=%v flag=%#x", v, sc.p[v], sc.r[v], sc.flag[v])
		}
	}
}
