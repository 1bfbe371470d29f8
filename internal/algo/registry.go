package algo

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// This file is the single algorithm-dispatch table shared by cmd/ligra-run
// and cmd/ligra-serve: both resolve an algorithm name to a Runner here, so
// the two binaries cannot drift on which algorithms exist, what parameters
// they take, or how their results are summarized.

// Backend names accepted by Params.Backend. There is one execution engine:
// every name runs edgeMap, and the bfs, pagerank and triangles runners
// report BackendEdgeMap.
const (
	BackendEdgeMap = "edgemap"
	BackendSpMV    = "spmv"
	BackendAuto    = "auto"
)

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
	// Backend is a wire name kept for requests that set it: "", "edgemap",
	// "spmv" or "auto". Every one of them runs edgeMap, the one execution
	// engine, so Backend is deliberately absent from Canonical: it never
	// changes what a result is. "spmv" is accepted only for the
	// algorithms that once had a second kernel (Runner.Validate).
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
// later by Runner.Validate, which knows the algorithm.
func (p Params) Validate() error {
	if p.Mode != "" && !slices.Contains(modeNames, p.Mode) {
		return fmt.Errorf("unknown mode %q (have %s)", p.Mode, strings.Join(modeNames, " | "))
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
// extras are deliberately excluded — and so is Backend: every backend
// name runs the same edgeMap code, so a result cached under one name must
// be served to a request naming another instead of being computed twice.
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
	return fmt.Sprintf("source=%d seed=%d k=%d alpha=%s eps=%s mode=%s threshold=%d target=%d landmarks=%s",
		p.Source, p.Seed, p.K,
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
	if i := slices.Index(modeNames, p.Mode); i > 0 {
		o.Mode = core.Mode(i)
	}
	return o
}

// modeNames are the wire mode names, each at its core.Mode's index.
var modeNames = func() []string {
	var names []string
	for m := core.Auto; m <= core.Forward; m++ {
		names = append(names, m.String())
	}
	return names
}()

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

// Runner is one dispatchable algorithm, and its row the one place that
// knows the algorithm's facts.
type Runner struct {
	// Name is the identifier used by -algo and the server's "algo" field.
	Name string
	// NeedsSource reports whether the algorithm starts from a source
	// vertex (Params.Source is meaningful).
	NeedsSource bool
	// NeedsWeights reports whether the algorithm interprets edge weights
	// (runs on unweighted graphs treat every weight as 1).
	NeedsWeights bool
	// Undirected reports whether the algorithm is defined on undirected
	// graphs only; Validate refuses a directed one, on which it would
	// report a wrong answer as a success.
	Undirected bool
	// spmv marks the algorithms that once had a second kernel: they
	// accept backend "spmv" and reply "backend":"edgemap".
	spmv bool
	// check refuses the parameters a graph of n vertices cannot answer.
	check func(n int, p Params) error
	// Run calls run if set, else refresh with nothing to carry forward.
	run runFunc
	// refresh is the run of an algorithm whose last result a snapshot
	// store can carry forward; it reports whether rf carried it.
	refresh func(ctx context.Context, rf Refresher, p Params) (RunResult, bool, error)
	// fromSweep, when set, lets the algorithm's queries share a
	// ClusterBFS sweep: it reads source i's answer from the sweep.
	fromSweep func(res *ClusterBFSResult, i int, p Params) RunResult
}

type runFunc func(ctx context.Context, g graph.View, p Params) (RunResult, error)

// Refresher is a pinned snapshot's incremental path (a *delta.Pin is one):
// each call carries its store's last result forward over the edges
// changed since, or runs in full, and reports whether it carried it.
type Refresher interface {
	RefreshCC(ctx context.Context, opts core.Options) (*CCResult, bool, error)
	RefreshPageRankDelta(ctx context.Context, opts PageRankOptions, delta float64) (*PageRankResult, bool, error)
}

// fullRun is the Refresher with no last result: it runs in full over g.
type fullRun struct{ g graph.View }

func (f fullRun) RefreshCC(ctx context.Context, opts core.Options) (*CCResult, bool, error) {
	res, err := ConnectedComponentsCtx(ctx, f.g, opts)
	return res, false, err
}

func (f fullRun) RefreshPageRankDelta(ctx context.Context, opts PageRankOptions, delta float64) (*PageRankResult, bool, error) {
	res, err := PageRankDeltaCtx(ctx, f.g, opts, delta)
	return res, false, err
}

// Validate checks a query of r against g: the graph's kind, the backend
// name and the algorithm's own parameters. The server's plan and Run both
// call it, so every caller refuses with the same error.
func (r Runner) Validate(g graph.View, p Params) error {
	if r.Undirected && !g.Symmetric() {
		return errDirected(r.Name)
	}
	if p.Backend == BackendSpMV && !r.spmv {
		spmv := slices.DeleteFunc(RunnerNames(), func(name string) bool { o, _ := FindRunner(name); return !o.spmv })
		return fmt.Errorf("algorithm %q has no spmv kernel (backends: %s)", r.Name, strings.Join(spmv, ", "))
	}
	if r.check != nil {
		return r.check(g.NumVertices(), p)
	}
	return nil
}

// Run validates the query, then executes the algorithm under ctx (nil
// means no deadline), with Params.EdgeMap.Procs, when set, applied to ctx
// once as its worker cap (parallel.WithProcs) so it bounds every pass of
// the run, not only the edgeMap rounds. Every algorithm observes ctx: a
// cancelled or expired one stops the run cooperatively, and Run returns
// the partial result alongside a *RoundError.
func (r Runner) Run(ctx context.Context, g graph.View, p Params) (RunResult, error) {
	if err := r.Validate(g, p); err != nil {
		return RunResult{}, err
	}
	ctx = parallel.WithProcs(ctx, p.EdgeMap.Procs)
	var res RunResult
	var err error
	switch {
	case r.run != nil:
		res, err = r.run(ctx, g, p)
	default:
		res, _, err = r.refresh(ctx, fullRun{g}, p)
	}
	return r.reply(res), err
}

// Refresh answers a validated query from rf when r has an incremental
// path, with Run's reply plus an "incremental" detail saying whether rf
// carried its last result; for any other r it runs nothing and says so.
func (r Runner) Refresh(ctx context.Context, rf Refresher, p Params) (RunResult, bool, error) {
	if r.refresh == nil {
		return RunResult{}, false, nil
	}
	res, incremental, err := r.refresh(parallel.WithProcs(ctx, p.EdgeMap.Procs), rf, p)
	res.Details["incremental"] = incremental
	return res, true, err
}

// reply adds the backend that ran to the replies of the rows that accept
// "spmv".
func (r Runner) reply(res RunResult) RunResult {
	if r.spmv && res.Details != nil {
		res.Details["backend"] = BackendEdgeMap
	}
	return res
}

// MaxLandmarks bounds the landmark list, and with it a query's cost: each
// landmark the source side has not reached may grow a search of its own.
const MaxLandmarks = 64

// Sweeps reports whether queries of r can share a ClusterBFS sweep.
func (r Runner) Sweeps() bool { return r.fromSweep != nil }

// FromSweep reads source i's answer from a sweep of r's as Run replies
// it, so a batched caller cannot tell it shared a sweep.
func (r Runner) FromSweep(res *ClusterBFSResult, i int, p Params) RunResult {
	return r.reply(r.fromSweep(res, i, p))
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

// DefaultSource is the source a query without one runs from: the
// highest-out-degree vertex, ties to the smallest ID, and 0 on a graph
// with no vertices. It fails only when ctx is cancelled.
func DefaultSource(ctx context.Context, g graph.View) (uint32, error) {
	if g.NumVertices() == 0 {
		return 0, nil
	}
	v, err := parallel.MaxIndexFunc(ctx, g.NumVertices(), func(v int) int { return g.OutDegree(uint32(v)) })
	return uint32(v), err
}

// UnknownAlgoError builds the standard error for an unresolvable name.
func UnknownAlgoError(name string) error {
	names := RunnerNames()
	sort.Strings(names)
	return fmt.Errorf("unknown algorithm %q (have %v)", name, names)
}

var runners = []Runner{
	{
		Name: "bfs", NeedsSource: true, spmv: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := BFSCtx(ctx, g, p.Source, p.EdgeMapOptions())
			return bfsReply(p.Source, res.Visited, res.Rounds), err
		},
		fromSweep: func(res *ClusterBFSResult, i int, p Params) RunResult {
			return bfsReply(p.Source, int(res.Reached[i]), int(res.Depth[i]))
		},
	},
	{
		Name: "reach", NeedsSource: true,
		check: func(n int, p Params) error {
			if int(p.Target) >= n {
				return fmt.Errorf("target vertex %d out of range (graph has %d vertices)", p.Target, n)
			}
			return nil
		},
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			dists, err := distancesCtx(ctx, g, p.Source, []uint32{p.Target}, p.EdgeMapOptions())
			dist := int64(dists[0])
			summary := fmt.Sprintf("Reach from %d to %d: unreachable", p.Source, p.Target)
			if dist >= 0 {
				summary = fmt.Sprintf("Reach from %d to %d: reachable (distance %d)", p.Source, p.Target, dist)
			}
			return RunResult{Summary: summary, Details: map[string]any{"source": p.Source, "target": p.Target, "reachable": dist >= 0, "distance": dist}}, err
		},
	},
	{
		Name: "landmarks", NeedsSource: true,
		check: func(n int, p Params) error {
			if len(p.Landmarks) == 0 {
				return fmt.Errorf("landmarks algorithm requires a non-empty landmarks list")
			}
			if len(p.Landmarks) > MaxLandmarks {
				return fmt.Errorf("too many landmarks: %d (max %d)", len(p.Landmarks), MaxLandmarks)
			}
			for _, l := range p.Landmarks {
				if int(l) >= n {
					return fmt.Errorf("landmark vertex %d out of range (graph has %d vertices)", l, n)
				}
			}
			return nil
		},
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			dists, err := distancesCtx(ctx, g, p.Source, p.Landmarks, p.EdgeMapOptions())
			out := make([]int64, len(dists))
			reachable := 0
			for j, d := range dists {
				out[j] = int64(d)
				if d >= 0 {
					reachable++
				}
			}
			return RunResult{
				Summary: fmt.Sprintf("Landmarks from %d: %d/%d reachable", p.Source, reachable, len(dists)),
				Details: map[string]any{"source": p.Source, "landmarks": len(dists), "reachable": reachable, "distances": out},
			}, err
		},
	},
	{
		Name: "bc", NeedsSource: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
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
		Name: "bc-approx",
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
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
		Name: "radii",
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			// One sweep: a query samples at most one visit word of sources.
			res, err := RadiiCtx(ctx, g, RadiiOptions{K: min(p.k(64), 64), Seed: p.seed(1), EdgeMap: p.EdgeMapOptions()})
			maxR := maxOrMinusOne(res.Radii)
			return RunResult{
				Summary: fmt.Sprintf("Radii (K=%d): %d rounds; estimated diameter lower bound %d",
					len(res.Sources), res.Rounds, maxR),
				Details: map[string]any{"sources": len(res.Sources), "rounds": res.Rounds, "diameter_lower_bound": maxR},
			}, err
		},
	},
	{
		Name: "components", Undirected: true,
		refresh: func(ctx context.Context, rf Refresher, p Params) (RunResult, bool, error) {
			res, incremental, err := rf.RefreshCC(ctx, p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Components: %d components in %d rounds", res.Components, res.Rounds),
				Details: map[string]any{"components": res.Components, "rounds": res.Rounds},
			}, incremental, err
		},
	},
	{
		Name: "pagerank", spmv: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			o := DefaultPageRankOptions()
			o.EdgeMap = p.EdgeMapOptions()
			res, err := PageRankCtx(ctx, g, o)
			return RunResult{
				Summary: fmt.Sprintf("PageRank: %d iterations, final L1 change %.3g", res.Iterations, res.Err),
				Details: map[string]any{"iterations": res.Iterations, "l1_change": res.Err},
			}, err
		},
	},
	{
		Name: "pagerank-delta",
		refresh: func(ctx context.Context, rf Refresher, p Params) (RunResult, bool, error) {
			o := DefaultPageRankOptions()
			o.EdgeMap = p.EdgeMapOptions()
			res, incremental, err := rf.RefreshPageRankDelta(ctx, o, 1e-3)
			return RunResult{
				Summary: fmt.Sprintf("PageRank-Delta: %d iterations, final L1 change %.3g", res.Iterations, res.Err),
				Details: map[string]any{"iterations": res.Iterations, "l1_change": res.Err},
			}, incremental, err
		},
	},
	{
		Name: "bellman-ford", NeedsSource: true, NeedsWeights: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
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
		Name: "kcore", Undirected: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := KCoreCtx(ctx, g, p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("KCore: degeneracy %d in %d peeling rounds", res.MaxCore, res.Rounds),
				Details: map[string]any{"degeneracy": res.MaxCore, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "mis", Undirected: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := MISCtx(ctx, g, p.seed(123), p.EdgeMapOptions())
			size, cerr := parallel.CountFunc(ctx, len(res.InSet), func(v int) bool { return res.InSet[v] })
			err = cmp.Or(err, roundErr("mis", res.Rounds, cerr))
			return RunResult{
				Summary: fmt.Sprintf("MIS: %d vertices in %d rounds", size, res.Rounds),
				Details: map[string]any{"size": size, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "scc",
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := SCCCtx(ctx, g, p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("SCC: %d strongly connected components", res.Components),
				Details: map[string]any{"components": res.Components},
			}, err
		},
	},
	{
		Name: "coloring", Undirected: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := Coloring(ctx, g, p.seed(7), p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Coloring: %d colors in %d rounds", res.NumColors, res.Rounds),
				Details: map[string]any{"colors": res.NumColors, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "matching", Undirected: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := MaximalMatching(ctx, g, p.seed(7))
			return RunResult{
				Summary: fmt.Sprintf("Matching: %d edges in %d rounds", res.Size, res.Rounds),
				Details: map[string]any{"edges": res.Size, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "eccentricity",
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := TwoPassEccentricityCtx(ctx, g, p.k(64), p.seed(7), p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Two-pass eccentricity: diameter >= %d (%d rounds)",
					res.DiameterLowerBound, res.Rounds),
				Details: map[string]any{"diameter_lower_bound": res.DiameterLowerBound, "rounds": res.Rounds},
			}, err
		},
	},
	{
		Name: "densest", Undirected: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			res, err := DensestSubgraph(ctx, g, p.EdgeMapOptions())
			return RunResult{
				Summary: fmt.Sprintf("Densest subgraph: %d vertices, density %.3f (%d peels)",
					len(res.Vertices), res.Density, res.Peels),
				Details: map[string]any{"vertices": len(res.Vertices), "density": res.Density, "peels": res.Peels},
			}, err
		},
	},
	{
		Name: "local-cluster", NeedsSource: true, Undirected: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			alpha, eps := p.Alpha, p.Eps
			if alpha == 0 {
				alpha = 0.15
			}
			if eps == 0 {
				eps = 1e-6
			}
			res, err := LocalCluster(ctx, g, p.Source, alpha, eps)
			if res == nil {
				return RunResult{}, err
			}
			return RunResult{
				Summary: fmt.Sprintf("Local cluster around %d: %d vertices, conductance %.4f",
					p.Source, len(res.Cluster), res.Conductance),
				Details: map[string]any{"source": p.Source, "cluster_size": len(res.Cluster), "conductance": res.Conductance},
			}, err
		},
	},
	{
		Name: "triangles", Undirected: true, spmv: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			count, err := TriangleCountCtx(ctx, g)
			return RunResult{
				Summary: fmt.Sprintf("Triangles: %d", count),
				Details: map[string]any{"triangles": count},
			}, err
		},
	},
	{
		Name: "clustering", Undirected: true,
		run: func(ctx context.Context, g graph.View, p Params) (RunResult, error) {
			lcc, err := LocalClusteringCoefficients(ctx, g)
			var sum float64
			for _, c := range lcc {
				sum += c
			}
			mean := 0.0 // the mean over no vertices, kept a number on the wire
			if len(lcc) > 0 {
				mean = sum / float64(len(lcc))
			}
			return RunResult{
				Summary: fmt.Sprintf("Clustering: mean local coefficient %.4f", mean),
				Details: map[string]any{"mean_coefficient": mean},
			}, err
		},
	},
}

// bfsReply is the bfs reply, whichever execution (one BFS or a shared
// sweep) produced the counts.
func bfsReply(source uint32, visited, rounds int) RunResult {
	return RunResult{
		Summary: fmt.Sprintf("BFS from %d: visited %d vertices in %d rounds", source, visited, rounds),
		Details: map[string]any{"source": source, "visited": visited, "rounds": rounds},
	}
}

// errDirected is the refusal of an algorithm defined on undirected graphs
// only.
func errDirected(name string) error {
	return fmt.Errorf("%s needs an undirected graph; this one is directed", name)
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
