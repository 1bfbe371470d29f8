package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ligra/internal/core"
)

// span is one timed interval at a layer boundary, recorded from this
// package around calls into each layer's public entry point. Spans of one
// operation share OpID; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	ID      int            `json:"id"`
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	EndNs   int64          `json:"end_ns"`
	Parent  int            `json:"parent"`
	OpID    int            `json:"op_id"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory and writes them out when the pass ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, start, end time.Time, parent, op int, attrs map[string]any) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, OpID: op, Attrs: attrs,
	})
	return id
}

// addRounds hangs one child span per core.Trace entry under an algo.run
// span. core.TraceEntry carries a duration but no start time, so the
// rounds are laid out back to back from the parent's start: their lengths
// (and therefore the parent's self time) are measured, their positions
// are not.
func (t *tracer) addRounds(tr *core.Trace, parentStart time.Time, parent, op int) {
	at := parentStart
	for _, e := range tr.Entries {
		name := "core.edgemap.sparse"
		if e.Dense {
			name = "core.edgemap.dense"
		}
		t.add(name, at, at.Add(e.Duration), parent, op, map[string]any{
			"round": e.Round, "frontier": e.FrontierSize, "out_degrees": e.OutDegrees, "output": e.OutputSize,
		})
		at = at.Add(e.Duration)
	}
}

func (t *tracer) write(root, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
