package algo

import (
	"context"
	"fmt"

	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/spmv"
)

// This file is the execution-backend abstraction: bfs has a GraphBLAS-style
// semiring kernel (internal/spmv) and can run via edgeMap or via SpMV,
// selected per run by Params.Backend. Both backends produce bit-identical
// results (enforced by internal/spmv's property tests), which is why the
// backend is excluded from Params.Canonical — a cached result from either
// backend answers a query for the other. pagerank and triangles accept the
// same names but have one implementation each: PageRankCtx's row kernel is
// the (+, x) pull gather, and TriangleCountCtx the masked row product, that
// the spmv package used to spell a second time.

// Backend names accepted by Params.Backend.
const (
	// BackendEdgeMap is the frontier-based edgeMap execution the paper
	// describes; every algorithm supports it. It is the default.
	BackendEdgeMap = "edgemap"
	// BackendSpMV executes via the semiring kernels in internal/spmv;
	// only the algorithms in spmvKernels accept it.
	BackendSpMV = "spmv"
	// BackendAuto picks per algorithm and graph shape: see ResolveBackend.
	BackendAuto = "auto"
)

// spmvKernels names the algorithms that accept backend "spmv".
var spmvKernels = map[string]bool{"bfs": true, "pagerank": true, "triangles": true}

// HasSpMVKernel reports whether the named algorithm can execute on the
// spmv backend.
func HasSpMVKernel(name string) bool { return spmvKernels[name] }

// ResolveBackend maps Params.Backend to the backend a run of the named
// algorithm on g will execute on:
//
//   - "" or "edgemap": edgeMap, always.
//   - "spmv": the semiring kernel; an error if the algorithm has none.
//   - "auto": edgemap for algorithms without a kernel; otherwise the
//     shape rule measured by `ligra-bench -experiment spmv` (see
//     docs/PERFORMANCE.md): spmv whenever the view is raw CSR, edgemap
//     otherwise. The scale-16 race has the BFS kernel winning on CSR even
//     on the low-degree high-diameter 3d-grid, where the word-walk push
//     beats sparse edgeMap's frontier-array build. Compressed / mapped /
//     snapshot views reach it through neighbor iterators, where spmv has
//     no gather advantage over edgeMap's tuned decode paths, so they stay
//     on edgemap. (For pagerank and triangles the answer only names what
//     the reply echoes: both run their one implementation either way.)
//
// Anything else is an error (same wording contract as Params.Validate).
func ResolveBackend(name string, g graph.View, p Params) (string, error) {
	switch p.Backend {
	case "", BackendEdgeMap:
		return BackendEdgeMap, nil
	case BackendSpMV:
		if !HasSpMVKernel(name) {
			return "", fmt.Errorf("algorithm %q has no spmv kernel (backends: bfs, pagerank, triangles)", name)
		}
		return BackendSpMV, nil
	case BackendAuto:
		if !HasSpMVKernel(name) {
			return BackendEdgeMap, nil
		}
		return autoBackend(g), nil
	default:
		return "", fmt.Errorf("unknown backend %q (have edgemap | spmv | auto)", p.Backend)
	}
}

func autoBackend(g graph.View) string {
	if _, isCSR := g.(*graph.Graph); !isCSR {
		return BackendEdgeMap
	}
	return BackendSpMV
}

// backendCtx applies the one EdgeMap extra that is meaningful to both
// backends — the per-call proc lease — mirroring what core's edgeMap does
// internally with the same Options.
func backendCtx(ctx context.Context, p Params) context.Context {
	if p.EdgeMap.Procs > 0 {
		ctx = parallel.WithProcs(ctx, p.EdgeMap.Procs)
	}
	return ctx
}

// spmvBFSRun executes the bfs runner on the spmv backend. Mode and
// Threshold keep their edgeMap meaning (per-round direction forcing and
// dense-switch threshold); "dense-forward" degrades to the pull kernel,
// which is the closest spmv realization.
func spmvBFSRun(ctx context.Context, g graph.View, p Params) (RunResult, error) {
	o := p.EdgeMapOptions()
	res, err := spmv.BFSLevels(backendCtx(ctx, p), g, p.Source, spmv.BFSOptions{
		Mode:      o.Mode,
		Threshold: o.Threshold,
	})
	if res == nil {
		return RunResult{}, err
	}
	return bfsRunResult(p.Source, res.Visited, res.Rounds, BackendSpMV), roundErr("bfs", res.Rounds, err)
}
