package algo

import (
	"context"
	"sort"

	"ligra/internal/core"
	"ligra/internal/graph"
)

// EccentricityResult carries the two-pass eccentricity estimates.
type EccentricityResult struct {
	// Ecc[v] is the estimated eccentricity of v (a lower bound on the
	// true value; -1 if v was not reached by any sampled BFS).
	Ecc []int32
	// DiameterLowerBound is the largest estimate observed.
	DiameterLowerBound int32
	// Rounds is the total number of edgeMap rounds over both passes.
	Rounds int
}

// TwoPassEccentricityCtx estimates per-vertex eccentricities with the
// simple two-pass multi-BFS scheme that Shun's KDD 2015 study found to be
// surprisingly effective: run K simultaneous BFS from a random sample
// (pass 1), then re-run from the vertices the first pass found to be
// farthest from the sample — good candidates for the graph's periphery —
// and keep the per-vertex maximum distance observed in either pass.
// Estimates are lower bounds that typically approach the true
// eccentricities on small-diameter graphs.
//
// Cancellation is threaded through both multi-BFS passes. On interruption
// Ecc holds the per-vertex maximum over whatever rounds completed (still
// valid lower bounds) with a *RoundError.
func TwoPassEccentricityCtx(ctx context.Context, g graph.View, k int, seed uint64, opts core.Options) (*EccentricityResult, error) {
	n := g.NumVertices()
	if k <= 0 || k > 64 {
		k = 64
	}
	if k > n {
		k = n
	}
	// Pass 1: random sample.
	pass1, err := RadiiCtx(ctx, g, RadiiOptions{K: k, Seed: seed, EdgeMap: opts})
	if err != nil {
		return &EccentricityResult{
			Ecc:                pass1.Radii,
			DiameterLowerBound: maxOrMinusOne(pass1.Radii),
			Rounds:             pass1.Rounds,
		}, roundErr("eccentricity", pass1.Rounds, err)
	}

	// Peripheral candidates: the k vertices with the largest pass-1
	// estimates (ties by ID for determinism).
	type cand struct {
		v   uint32
		ecc int32
	}
	cands := make([]cand, 0, n)
	for v := 0; v < n; v++ {
		if pass1.Radii[v] >= 0 {
			cands = append(cands, cand{uint32(v), pass1.Radii[v]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ecc != cands[j].ecc {
			return cands[i].ecc > cands[j].ecc
		}
		return cands[i].v < cands[j].v
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	sources2 := make([]uint32, len(cands))
	for i, c := range cands {
		sources2[i] = c.v
	}

	// Pass 2: multi-BFS from the periphery via the same bit-vector
	// machinery.
	pass2, rounds2, err2 := radiiFromSources(ctx, g, sources2, opts)

	ecc := make([]int32, n)
	var diam int32 = -1
	for v := 0; v < n; v++ {
		e := pass1.Radii[v]
		if pass2[v] > e {
			e = pass2[v]
		}
		ecc[v] = e
		if e > diam {
			diam = e
		}
	}
	res := &EccentricityResult{
		Ecc:                ecc,
		DiameterLowerBound: diam,
		Rounds:             pass1.Rounds + rounds2,
	}
	return res, roundErr("eccentricity", res.Rounds, err2)
}

// maxOrMinusOne returns the maximum of xs, or -1 for an empty slice.
func maxOrMinusOne(xs []int32) int32 {
	m := int32(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
