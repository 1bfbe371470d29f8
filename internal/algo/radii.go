package algo

import (
	"cmp"
	"context"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// RadiiOptions configures the eccentricity estimator.
type RadiiOptions struct {
	// K is the number of sampled BFS sources. Each 64 of them share one
	// sweep, one bit of a 64-bit visit word per source (the paper uses
	// K = 64, one sweep).
	K int
	// Seed selects the random sample of sources deterministically.
	Seed uint64
	// EdgeMap options forwarded to every round.
	EdgeMap core.Options
}

// DefaultRadiiOptions returns the paper's parameters.
func DefaultRadiiOptions() RadiiOptions {
	return RadiiOptions{K: 64, Seed: 1}
}

// RadiiResult carries the output of the radii estimation.
type RadiiResult struct {
	// Radii[v] is the estimated eccentricity of v: the maximum BFS
	// distance from v to any of the K sampled sources that reached it
	// (a lower bound on the true eccentricity). -1 if no source reached v.
	Radii []int32
	// Sources are the sampled BFS roots.
	Sources []uint32
	// Rounds is the number of edgeMap rounds (the largest distance from
	// the sample to any vertex).
	Rounds int
}

// RadiiCtx runs the paper's graph-eccentricity estimation (§5.3): K
// simultaneous BFS from random sources, sharing work through per-vertex
// 64-bit visit vectors. Each round, a vertex whose visit word gains new
// bits updates its radius estimate to the current round, so the final
// estimate of v is its distance to the farthest sampled source reaching v.
// The sweep itself is the ClusterBFS primitive; Radii keeps only the
// sampling and the per-vertex maximum. min(K, n) distinct sources are
// sampled (K <= 0 selects 64); past 64 of them, one sweep runs per 64.
//
// Cancellation is observed before every multi-BFS round and at chunk
// granularity inside the edgeMaps. On interruption Radii holds lower
// bounds on the true estimates — every non-negative entry is a genuine
// distance to some sampled source — returned with a *RoundError.
func RadiiCtx(ctx context.Context, g graph.View, opts RadiiOptions) (*RadiiResult, error) {
	if opts.K <= 0 {
		opts.K = 64
	}
	sources := sampleVertices(g.NumVertices(), min(opts.K, g.NumVertices()), opts.Seed)
	radii, rounds, err := radiiFromSources(ctx, g, sources, opts.EdgeMap)
	return &RadiiResult{Radii: radii, Sources: sources, Rounds: rounds},
		roundErr("radii", rounds, err)
}

// radiiFromSources runs the shared-bit-vector multi-BFS from the given
// sources and returns per-vertex max distances from the sources that
// reach them (-1 when unreached) plus the max number of rounds. Sources
// beyond the 64 that fit one visit word are handled by running batches of
// 64 and keeping the per-vertex maximum (bit-sharing happens within each
// batch); no source count panics. Each batch is one ClusterBFS sweep;
// the MaxLevel it maintains per vertex is exactly the radii estimate.
func radiiFromSources(ctx context.Context, g graph.View, sources []uint32, emOpts core.Options) ([]int32, int, error) {
	if len(sources) <= MaxClusterSources {
		res, err := clusterSweep(ctx, g, sources, ClusterBFSOptions{EdgeMap: emOpts}, false)
		return res.MaxLevel, res.Rounds, err
	}
	n := g.NumVertices()
	radii := make([]int32, n)
	if err := fill(ctx, radii, int32(-1)); err != nil {
		return radii, 0, err
	}
	rounds := 0
	for lo := 0; lo < len(sources); lo += MaxClusterSources {
		hi := lo + MaxClusterSources
		if hi > len(sources) {
			hi = len(sources)
		}
		res, err := clusterSweep(ctx, g, sources[lo:hi], ClusterBFSOptions{EdgeMap: emOpts}, false)
		if res.Rounds > rounds {
			rounds = res.Rounds
		}
		// The merge runs to its end under ctx's worker cap without its
		// cancellation: an interrupted batch's completed rounds are kept.
		batch := res.MaxLevel
		err = cmp.Or(err, parallel.For(detached(ctx), n, func(i int) {
			if batch[i] > radii[i] {
				radii[i] = batch[i]
			}
		}))
		if err != nil {
			return radii, rounds, err
		}
	}
	return radii, rounds, nil
}

// sampleVertices picks k distinct vertices from [0, n) deterministically
// (Floyd's algorithm over a hash RNG).
func sampleVertices(n, k int, seed uint64) []uint32 {
	picked := make(map[uint32]struct{}, k)
	out := make([]uint32, 0, k)
	for j := n - k; j < n; j++ {
		h := hashU64(seed, uint64(j))
		t := uint32(h % uint64(j+1))
		if _, ok := picked[t]; ok {
			t = uint32(j)
		}
		picked[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// hashU64 is a splitmix64-style hash for deterministic sampling.
func hashU64(seed, x uint64) uint64 {
	x ^= seed + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
