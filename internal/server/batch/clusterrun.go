package batch

import (
	"context"

	"ligra/internal/algo"
	"ligra/internal/graph"
	"ligra/internal/server/engine"
)

// ClusterRun is the standard sweep for a batch against g: one
// bit-parallel ClusterBFS sweep with every slot's source as a bit and
// every slot's probe vertices (reach targets, landmark lists) recorded,
// then per-slot extraction through each slot's runner row, which the
// row's unbatched Run reads through too — so a batched answer is
// byte-identical to the answer the query would have gotten alone. ctx carries the governor
// lease, which caps every pass of the sweep.
func ClusterRun(ctx context.Context, g graph.View, slots []Request) ([]engine.Value, error) {
	sources := make([]uint32, len(slots))
	var probes []uint32
	for i, s := range slots {
		sources[i] = s.Params.Source
		probes = append(probes, s.Runner.Probes(s.Params)...)
	}
	// Every slot shares the batch's shape, so slot 0's traversal
	// options speak for the sweep.
	res, err := algo.ClusterBFSCtx(ctx, g, sources, algo.ClusterBFSOptions{
		EdgeMap: slots[0].Params.EdgeMapOptions(),
		Probes:  probes,
	})
	if err != nil {
		return nil, err
	}
	vals := make([]engine.Value, len(slots))
	for i, s := range slots {
		rr := s.Runner.FromSweep(res, i, s.Params)
		vals[i] = engine.Value{Data: rr, Bytes: rr.EstimateBytes()}
	}
	return vals, nil
}
