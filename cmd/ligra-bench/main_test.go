package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ligra/internal/bench"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "table1", "-scale", "9", "-rounds", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== table1 ===") || !strings.Contains(out, "rMat") {
		t.Errorf("unexpected output: %q", out)
	}
	if !strings.Contains(out, "completed in") {
		t.Error("missing completion banner")
	}
}

func TestRunCommaSeparatedList(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "frontier,threshold", "-scale", "9", "-rounds", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== frontier ===") || !strings.Contains(out, "=== threshold ===") {
		t.Errorf("experiments missing from output")
	}
	if strings.Index(out, "frontier") > strings.Index(out, "threshold") {
		t.Error("experiments out of order")
	}
}

func TestRunWritesJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	err := run([]string{"-experiment", "table1", "-scale", "9", "-rounds", "1", "-json", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report bench.JSONReport
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.GoMaxProcs < 1 || report.Scale != 9 || report.Rounds != 1 {
		t.Errorf("bad config echo: %+v", report)
	}
	if len(report.Experiments) != 1 || report.Experiments[0].ID != "table1" || report.Experiments[0].Seconds <= 0 {
		t.Errorf("bad experiment timings: %+v", report.Experiments)
	}
	if len(report.Graphs) == 0 {
		t.Fatal("no graph sizes recorded")
	}
	for _, g := range report.Graphs {
		if g.Vertices <= 0 || g.Edges <= 0 || g.MemoryBytes <= 0 {
			t.Errorf("graph %s has empty sizes: %+v", g.Name, g)
		}
	}
	if !strings.Contains(buf.String(), "json results written") {
		t.Error("missing json banner")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "nope"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunAllAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	var buf bytes.Buffer
	err := run([]string{"-experiment", "all", "-scale", "9", "-rounds", "1", "-maxprocs", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range bench.ExperimentOrder() {
		if !strings.Contains(buf.String(), "=== "+id+" ===") {
			t.Errorf("missing experiment %s", id)
		}
	}
}
