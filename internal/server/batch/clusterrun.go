package batch

import (
	"context"

	"ligra/internal/algo"
	"ligra/internal/graph"
	"ligra/internal/server/engine"
)

// ClusterRun is the standard sweep for a batch against g: one
// bit-parallel ClusterBFS sweep with every slot's source as a bit, then
// per-slot extraction through each slot's runner row, packed as the
// plain runner's result is — so a batched answer is byte-identical to the
// answer the query would have gotten alone. ctx carries the governor
// lease, which caps every pass of the sweep.
func ClusterRun(ctx context.Context, g graph.View, slots []Request) ([]engine.Value, error) {
	sources := make([]uint32, len(slots))
	for i, s := range slots {
		sources[i] = s.Params.Source
	}
	// Every slot shares the batch's shape, so slot 0's traversal
	// options speak for the sweep.
	res, err := algo.ClusterBFSCtx(ctx, g, sources, algo.ClusterBFSOptions{
		EdgeMap: slots[0].Params.EdgeMapOptions(),
	})
	if err != nil {
		return nil, err
	}
	vals := make([]engine.Value, len(slots))
	for i, s := range slots {
		vals[i] = Pack(s.Runner.FromSweep(res, i, s.Params))
	}
	return vals, nil
}
