package bench

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ligra/internal/algo"
	"ligra/internal/core"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(4)
	os.Exit(m.Run())
}

func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Scale: 9, Rounds: 1, MaxProcs: 2, Out: buf}
}

func TestDefaultSuiteBuilds(t *testing.T) {
	suite := DefaultSuite(9)
	if len(suite) != 5 {
		t.Fatalf("suite has %d inputs, want 5", len(suite))
	}
	names := map[string]bool{}
	for _, in := range suite {
		g, err := in.Build()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", in.Name)
		}
		if !g.Symmetric() {
			t.Errorf("%s: evaluation inputs are symmetric in the paper", in.Name)
		}
		names[in.Name] = true
	}
	for _, want := range []string{"3d-grid", "randLocal", "rMat", "twitter-sim", "yahoo-sim"} {
		if !names[want] {
			t.Errorf("missing input %s", want)
		}
	}
}

func TestDefaultSuiteClampsScale(t *testing.T) {
	suite := DefaultSuite(1) // clamped to 8
	g, err := suite[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() < 100 {
		t.Errorf("clamped suite too small: %d", g.NumVertices())
	}
}

func TestFindInput(t *testing.T) {
	suite := DefaultSuite(9)
	if _, err := FindInput(suite, "rMat"); err != nil {
		t.Error(err)
	}
	if _, err := FindInput(suite, "nope"); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestAppsRunAtTinyScale(t *testing.T) {
	suite := DefaultSuite(9)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		t.Fatal(err)
	}
	g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	wg := WeightGraph(g)
	for _, app := range Apps() {
		view := g
		if app.NeedsWeights {
			view = wg
		}
		app.Run(view, core.Options{})
		app.RunSeq(view)
	}
}

func TestMeasure(t *testing.T) {
	calls := 0
	tm := Measure(5, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 5 {
		t.Errorf("fn called %d times, want 5", calls)
	}
	if tm.Min > tm.Median || tm.Median > tm.Max {
		t.Errorf("ordering violated: %+v", tm)
	}
	if tm.Min < time.Millisecond {
		t.Errorf("Min %v below the sleep floor", tm.Min)
	}
	tm0 := Measure(0, func() {}) // clamps to 1
	if tm0.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", tm0.Rounds)
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	exps := Experiments()
	order := ExperimentOrder()
	if len(exps) != len(order) {
		t.Fatalf("Experiments has %d entries, ExperimentOrder %d", len(exps), len(order))
	}
	for _, id := range order {
		run, ok := exps[id]
		if !ok {
			t.Fatalf("experiment %s missing from map", id)
		}
		var buf bytes.Buffer
		if err := run(tinyConfig(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestTable1MentionsEveryInput(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"3d-grid", "randLocal", "rMat", "twitter-sim", "yahoo-sim"} {
		if !strings.Contains(out, name) {
			t.Errorf("table1 output missing %s", name)
		}
	}
}

func TestFrontierShowsBothModes(t *testing.T) {
	var buf bytes.Buffer
	if err := Frontier(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sparse") || !strings.Contains(out, "dense") {
		t.Error("frontier trace should contain both representations at this scale")
	}
}

func TestThresholdIncludesExtremes(t *testing.T) {
	var buf bytes.Buffer
	if err := Threshold(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, label := range []string{"sparse-only", "dense-only", "m/20"} {
		if !strings.Contains(out, label) {
			t.Errorf("threshold output missing %q", label)
		}
	}
}

func TestPickSourceIsMaxDegree(t *testing.T) {
	suite := DefaultSuite(9)
	in, _ := FindInput(suite, "twitter-sim")
	g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	src := must(algo.DefaultSource(context.Background(), g))
	deg := g.OutDegree(src)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(uint32(v)) > deg {
			t.Fatalf("vertex %d has higher degree than picked source", v)
		}
	}
}
