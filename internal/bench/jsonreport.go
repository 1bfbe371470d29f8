package bench

import (
	"encoding/json"
	"os"

	"ligra/internal/core"
	"ligra/internal/parallel"
)

// JSONReport is the machine-readable result file ligra-bench -json
// writes, so the performance trajectory can be tracked as BENCH_*.json
// across PRs instead of scraped from tables.
type JSONReport struct {
	// Timestamp is RFC 3339 wall time of the run.
	Timestamp string `json:"timestamp"`
	// GoMaxProcs is the worker parallelism the run had available.
	GoMaxProcs int `json:"gomaxprocs"`
	// Scale and Rounds echo the harness configuration.
	Scale  int `json:"scale"`
	Rounds int `json:"rounds"`
	// Graphs describes each input of the suite at this scale.
	Graphs []JSONGraph `json:"graphs"`
	// Experiments holds one entry per experiment run, in execution
	// order, with its wall-clock duration.
	Experiments []JSONExperiment `json:"experiments"`
	// Measurements holds the individual named timings experiments chose
	// to record (median seconds), since whole-experiment wall times fold
	// in graph construction and printing.
	Measurements []JSONMeasurement `json:"measurements,omitempty"`
	// Traversal is the edgeMap direction-switch counter total across the
	// run (core.SnapshotStats delta), recording how many traversals ran
	// sparse vs dense and how many frontier out-edges the heuristic
	// weighed.
	Traversal *core.StatsSnapshot `json:"traversal,omitempty"`
	// Scheduler is the worker-pool counter delta across the run
	// (parallel.SchedulerSnapshot): pool dispatches versus inline runs
	// (including the sequential cutoff) and worker park/wake counts.
	Scheduler *parallel.SchedulerStats `json:"scheduler,omitempty"`
}

// JSONGraph is one input graph's size record.
type JSONGraph struct {
	Name        string `json:"name"`
	Vertices    int    `json:"vertices"`
	Edges       int64  `json:"edges"`
	MemoryBytes int64  `json:"memory_bytes"`
}

// JSONExperiment is one experiment's timing record.
type JSONExperiment struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// JSONMeasurement is one named measurement's timing record (median over
// the run's repetitions).
type JSONMeasurement struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// SuiteInfo builds the suite at the given scale and reports each input's
// size, for the JSON report.
func SuiteInfo(scale int) ([]JSONGraph, error) {
	suite := DefaultSuite(scale)
	out := make([]JSONGraph, 0, len(suite))
	for _, in := range suite {
		g, err := in.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, JSONGraph{
			Name:        in.Name,
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			MemoryBytes: g.MemoryFootprint(),
		})
	}
	return out, nil
}

// WriteFile writes the report as indented JSON.
func (r *JSONReport) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
