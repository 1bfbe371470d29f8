package algo

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ligra/internal/core"
	"ligra/internal/graph"
)

// This file is the single algorithm-dispatch table shared by cmd/ligra-run
// and cmd/ligra-serve: both resolve an algorithm name to a Runner here, so
// the two binaries cannot drift on which algorithms exist, what parameters
// they take, or how their results are summarized.

// Params is the single typed parameter set for algorithm invocation,
// shared by ligra-run's flag parsing, ligra-serve's query handlers, and
// the server's result-cache keys. The JSON tags define the wire format of
// a server query request; Canonical renders the same fields as a stable
// string for cache keying. Zero values select each algorithm's documented
// default (the same defaults ligra-run has always used), so a caller only
// fills in what it cares about.
type Params struct {
	// Source is the start vertex for traversal algorithms; callers are
	// expected to have validated it against the graph.
	Source uint32 `json:"source,omitempty"`
	// Seed drives the randomized algorithms; 0 selects the per-algorithm
	// default.
	Seed uint64 `json:"seed,omitempty"`
	// K is the sample budget for multi-source estimators (bc-approx,
	// eccentricity); 0 selects the per-algorithm default.
	K int `json:"k,omitempty"`
	// Delta is the delta-stepping bucket width; 0 lets the algorithm pick.
	Delta int64 `json:"delta,omitempty"`
	// Alpha and Eps parameterize local clustering; 0 selects the defaults
	// (0.15 and 1e-6).
	Alpha float64 `json:"alpha,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
	// Mode forces an edgeMap traversal strategy for every round of the
	// run: "" or "auto" (the degree heuristic), "sparse", "dense", or
	// "dense-forward".
	Mode string `json:"mode,omitempty"`
	// Threshold overrides the edgeMap dense-switch threshold (0 = |E|/20).
	Threshold int64 `json:"threshold,omitempty"`
	// Target is the destination vertex for the reach algorithm (defaults
	// to vertex 0, like Source).
	Target uint32 `json:"target,omitempty"`
	// Landmarks are the vertices the landmarks algorithm reports
	// distances to; required (and only meaningful) for that algorithm.
	Landmarks []uint32 `json:"landmarks,omitempty"`
	// Backend selects the execution backend for algorithms that have a
	// semiring kernel (HasSpMVKernel): "" or "edgemap" (frontier-based
	// edgeMap, the default), "spmv" (internal/spmv kernels), or "auto"
	// (per-shape choice; see ResolveBackend). Both backends produce
	// bit-identical results, so Backend is deliberately absent from
	// Canonical: it changes how a result is computed, never what it is.
	Backend string `json:"backend,omitempty"`

	// EdgeMap carries the non-serializable per-run extras (tracing, a
	// per-call proc cap) that EdgeMapOptions merges
	// under Mode and Threshold. It is excluded from the wire format and
	// from Canonical, so it never influences cache identity.
	EdgeMap core.Options `json:"-"`
}

// Validate rejects parameter combinations the registry cannot interpret
// (an unknown Mode or Backend). It is shared by ligra-run's flag parsing
// and the server's request decoding so both report identical errors.
// Whether the chosen Backend applies to a particular algorithm is checked
// later by ResolveBackend, which knows the algorithm and graph.
func (p Params) Validate() error {
	switch p.Mode {
	case "", "auto", "sparse", "dense", "dense-forward":
	default:
		return fmt.Errorf("unknown mode %q (have auto | sparse | dense | dense-forward)", p.Mode)
	}
	switch p.Backend {
	case "", BackendEdgeMap, BackendSpMV, BackendAuto:
	default:
		return fmt.Errorf("unknown backend %q (have edgemap | spmv | auto)", p.Backend)
	}
	return nil
}

// Canonical renders the serializable parameters as a stable, normalized
// string: equal strings mean the run is deterministic-equivalent, which is
// what the server's result cache keys on. The non-serializable EdgeMap
// extras are deliberately excluded — and so is Backend: the edgeMap and
// spmv backends are bit-identical (internal/spmv property tests), so a
// result cached under one backend must be served to a request for the
// other instead of being computed twice.
func (p Params) Canonical() string {
	mode := p.Mode
	if mode == "" {
		mode = "auto"
	}
	var lms strings.Builder
	for i, l := range p.Landmarks {
		if i > 0 {
			lms.WriteByte(',')
		}
		lms.WriteString(strconv.FormatUint(uint64(l), 10))
	}
	return fmt.Sprintf("source=%d seed=%d k=%d delta=%d alpha=%s eps=%s mode=%s threshold=%d target=%d landmarks=%s",
		p.Source, p.Seed, p.K, p.Delta,
		strconv.FormatFloat(p.Alpha, 'g', -1, 64),
		strconv.FormatFloat(p.Eps, 'g', -1, 64),
		mode, p.Threshold, p.Target, lms.String())
}

// EdgeMapOptions resolves Mode and Threshold on top of the EdgeMap extras,
// yielding the core.Options every edgeMap round of the run uses. An
// unrecognized Mode (callers are expected to Validate first) behaves as
// "auto".
func (p Params) EdgeMapOptions() core.Options {
	o := p.EdgeMap
	if p.Threshold != 0 {
		o.Threshold = p.Threshold
	}
	switch p.Mode {
	case "sparse":
		o.Mode = core.ForceSparse
	case "dense":
		o.Mode = core.ForceDense
	case "dense-forward":
		o.Mode = core.ForceDense
		o.DenseForward = true
	}
	return o
}

func (p Params) seed(def uint64) uint64 {
	if p.Seed == 0 {
		return def
	}
	return p.Seed
}

func (p Params) k(def int) int {
	if p.K <= 0 {
		return def
	}
	return p.K
}

// RunResult is the JSON-friendly outcome of one algorithm run.
type RunResult struct {
	// Summary is the one-line human-readable result ligra-run prints.
	Summary string
	// Details holds scalar result facts keyed by stable names, for
	// machine consumers (ligra-serve's query responses).
	Details map[string]any
}

// Runner is one dispatchable algorithm.
type Runner struct {
	// Name is the identifier used by -algo and the server's "algo" field.
	Name string
	// NeedsSource reports whether the algorithm starts from a source
	// vertex (Params.Source is meaningful).
	NeedsSource bool
	// NeedsWeights reports whether the algorithm interprets edge weights
	// (runs on unweighted graphs treat every weight as 1).
	NeedsWeights bool
	// Cancellable reports whether the algorithm has a Ctx entry point: a
	// cancelled or expired context stops it cooperatively and Run returns
	// the partial result alongside a *RoundError. Non-cancellable
	// algorithms ignore ctx and run to completion.
	Cancellable bool
	// Run executes the algorithm. A nil ctx means no deadline.
	Run func(ctx context.Context, g graph.View, p Params) (RunResult, error)
}

// Runners returns the dispatch table in presentation order.
func Runners() []Runner {
	return runners
}

// FindRunner resolves an algorithm name.
func FindRunner(name string) (Runner, bool) {
	for _, r := range runners {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// RunnerNames returns every algorithm name in presentation order.
func RunnerNames() []string {
	names := make([]string, len(runners))
	for i, r := range runners {
		names[i] = r.Name
	}
	return names
}

// UnknownAlgoError builds the standard error for an unresolvable name.
func UnknownAlgoError(name string) error {
	names := RunnerNames()
	sort.Strings(names)
	return fmt.Errorf("unknown algorithm %q (have %v)", name, names)
}

var runners = []Runner{
	{
		Name: "bfs", NeedsSource: true, Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			backend, berr := ResolveBackend("bfs", g, p)
			if berr != nil {
				return RunResult{}, berr
			}
			if backend == BackendSpMV {
				return spmvBFSRun(ctx, g, p)
			}
			res, err := BFSCtx(ctx, g, p.Source, p.EdgeMapOptions())
			return bfsRunResult(p.Source, res.Visited, res.Rounds, BackendEdgeMap), err
		},
	},
	{Name: "reach", NeedsSource: true, Cancellable: true, Run: levelsRunner("reach")},
	{Name: "landmarks", NeedsSource: true, Cancellable: true, Run: levelsRunner("landmarks")},
	{
		Name: "bc", NeedsSource: true, Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := BCCtx(ctx, g, p.Source, p.EdgeMapOptions())
			maxV, maxS := maxScore(res.Scores)
			return RunResult{
				Summary: fmt.Sprintf("BC from %d: %d forward rounds; max dependency %.2f at vertex %d",
					p.Source, res.Rounds, maxS, maxV),
				Details: map[string]any{"source": p.Source, "rounds": res.Rounds, "max_score": maxS, "max_vertex": maxV},
			}, err
		},
	},
	{
		Name: "bc-approx", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := BCApproxCtx(ctx, g, p.k(16), p.seed(1), p.EdgeMapOptions())
			maxV, maxS := maxScore(res.Scores)
			return RunResult{
				Summary: fmt.Sprintf("BC-approx (%d sources): max centrality %.1f at vertex %d",
					len(res.Sources), maxS, maxV),
				Details: map[string]any{"sources": len(res.Sources), "max_score": maxS, "max_vertex": maxV},
			}, err
		},
	},
	{
		Name: "radii", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			o := DefaultRadiiOptions()
			o.EdgeMap = p.EdgeMapOptions()
			if p.K > 0 {
				o.K = p.K
			}
			if p.Seed != 0 {
				o.Seed = p.Seed
			}
			res, err := RadiiCtx(ctx, g, o)
			maxR := int32(-1)
			for _, r := range res.Radii {
				if r > maxR {
					maxR = r
				}
			}
			return RunResult{
				Summary: fmt.Sprintf("Radii (K=%d): %d rounds; estimated diameter lower bound %d",
					len(res.Sources), res.Rounds, maxR),
				Details: map[string]any{"sources": len(res.Sources), "rounds": res.Rounds, "diameter_lower_bound": maxR},
			}, err
		},
	},
	{
		Name: "components", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := ConnectedComponentsCtx(ctx, g, p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Components: %d components in %d rounds", res.Components, res.Rounds),
				Details: map[string]any{"components": res.Components, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "pagerank", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			backend, berr := ResolveBackend("pagerank", g, p)
			if berr != nil {
				return RunResult{}, berr
			}
			// Both backends run the one gather: PageRankCtx's row kernel is
			// the (+, x) pull SpMV. The name is kept on the wire.
			o := DefaultPageRankOptions()
			o.EdgeMap = p.EdgeMapOptions()
			res, err := PageRankCtx(ctx, g, o)
			return RunResult{
				Summary: fmt.Sprintf("PageRank: %d iterations, final L1 change %.3g", res.Iterations, res.Err),
				Details: map[string]any{"iterations": res.Iterations, "l1_change": res.Err, "backend": backend},
			}, err
		},
	},
	{
		Name: "pagerank-delta", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			o := DefaultPageRankOptions()
			o.EdgeMap = p.EdgeMapOptions()
			res, err := PageRankDeltaCtx(ctx, g, o, 1e-3)
			return RunResult{
				Summary: fmt.Sprintf("PageRank-Delta: %d iterations, final L1 change %.3g", res.Iterations, res.Err),
				Details: map[string]any{"iterations": res.Iterations, "l1_change": res.Err},
			}, err
		},
	},
	{
		Name: "bellman-ford", NeedsSource: true, NeedsWeights: true, Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := BellmanFordCtx(ctx, g, p.Source, p.EdgeMapOptions())
			if res.NegativeCycle {
				return RunResult{
					Summary: "Bellman-Ford: negative cycle detected",
					Details: map[string]any{"negative_cycle": true},
				}, err
			}
			reached := countReached(res.Dist)
			return RunResult{
				Summary: fmt.Sprintf("Bellman-Ford from %d: reached %d vertices in %d rounds", p.Source, reached, res.Rounds),
				Details: map[string]any{"source": p.Source, "reached": reached, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "delta-stepping", NeedsSource: true, NeedsWeights: true, Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := DeltaSteppingCtx(ctx, g, p.Source, p.Delta, p.EdgeMapOptions())
			if res == nil {
				return RunResult{}, err
			}
			reached := countReached(res.Dist)
			return RunResult{
				Summary: fmt.Sprintf("Delta-stepping from %d: reached %d vertices over %d buckets (%d phases)",
					p.Source, reached, res.Buckets, res.Phases),
				Details: map[string]any{"source": p.Source, "reached": reached, "buckets": res.Buckets, "phases": res.Phases},
			}, err
		},
	},
	{
		Name: "kcore", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := KCoreCtx(ctx, g, p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("KCore: degeneracy %d in %d peeling rounds", res.MaxCore, res.Rounds),
				Details: map[string]any{"degeneracy": res.MaxCore, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "mis", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := MISCtx(ctx, g, p.seed(123), p.EdgeMapOptions())
			size := 0
			for _, in := range res.InSet {
				if in {
					size++
				}
			}
			return RunResult{
				Summary: fmt.Sprintf("MIS: %d vertices in %d rounds", size, res.Rounds),
				Details: map[string]any{"size": size, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "scc", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := SCCCtx(ctx, g, p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("SCC: %d strongly connected components", res.Components),
				Details: map[string]any{"components": res.Components},
			}, err
		},
	},
	{
		Name: "coloring",
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res := Coloring(g, p.seed(7), p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Coloring: %d colors in %d rounds", res.NumColors, res.Rounds),
				Details: map[string]any{"colors": res.NumColors, "rounds": res.Rounds},
			}, nil
		},
	},
	{
		Name: "matching",
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res := MaximalMatching(g, p.seed(7))
			return RunResult{
				Summary: fmt.Sprintf("Matching: %d edges in %d rounds", res.Size, res.Rounds),
				Details: map[string]any{"edges": res.Size, "rounds": res.Rounds},
			}, nil
		},
	},
	{
		Name: "cc-ldd",
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res := ConnectedComponentsLDD(g, 0.2, p.seed(7), p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Components (LDD contraction): %d components", res.Components),
				Details: map[string]any{"components": res.Components},
			}, nil
		},
	},
	{
		Name: "eccentricity", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := TwoPassEccentricityCtx(ctx, g, p.k(64), p.seed(7), p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Two-pass eccentricity: diameter >= %d (%d rounds)",
					res.DiameterLowerBound, res.Rounds),
				Details: map[string]any{"diameter_lower_bound": res.DiameterLowerBound, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "densest",
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res := DensestSubgraph(g, p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Densest subgraph: %d vertices, density %.3f (%d peels)",
					len(res.Vertices), res.Density, res.Peels),
				Details: map[string]any{"vertices": len(res.Vertices), "density": res.Density, "peels": res.Peels},
			}, nil
		},
	},
	{
		Name: "local-cluster", NeedsSource: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			alpha, eps := p.Alpha, p.Eps
			if alpha == 0 {
				alpha = 0.15
			}
			if eps == 0 {
				eps = 1e-6
			}
			res, err := LocalCluster(g, p.Source, alpha, eps)
			if err != nil {
				return RunResult{}, err
			}
			return RunResult{
				Summary: fmt.Sprintf("Local cluster around %d: %d vertices, conductance %.4f",
					p.Source, len(res.Cluster), res.Conductance),
				Details: map[string]any{"source": p.Source, "cluster_size": len(res.Cluster), "conductance": res.Conductance},
			}, nil
		},
	},
	{
		Name: "triangles", Cancellable: true,
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			backend, berr := ResolveBackend("triangles", g, p)
			if berr != nil {
				return RunResult{}, berr
			}
			// One kernel whatever the backend; the name is kept on the wire.
			count, err := TriangleCountCtx(backendCtx(ctx, p), g)
			return RunResult{
				Summary: fmt.Sprintf("Triangles: %d", count),
				Details: map[string]any{"triangles": count, "backend": backend},
			}, err
		},
	},
	{
		Name: "clustering",
		Run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			lcc := LocalClusteringCoefficients(g)
			var sum float64
			for _, c := range lcc {
				sum += c
			}
			mean := sum / float64(len(lcc))
			return RunResult{
				Summary: fmt.Sprintf("Clustering: mean local coefficient %.4f", mean),
				Details: map[string]any{"mean_coefficient": mean},
			}, nil
		},
	},
}

func maxScore(scores []float64) (int, float64) {
	maxV, maxS := 0, 0.0
	for v, s := range scores {
		if s > maxS {
			maxV, maxS = v, s
		}
	}
	return maxV, maxS
}

func countReached(dist []int64) int {
	reached := 0
	for _, d := range dist {
		if d < InfDist {
			reached++
		}
	}
	return reached
}
