package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ligra"
	"ligra/internal/algo"
)

func TestRunEveryAlgorithm(t *testing.T) {
	algos := []string{
		"bfs", "bc", "bc-approx", "radii", "components", "pagerank",
		"pagerank-delta", "bellman-ford", "kcore", "mis", "triangles",
		"clustering", "scc", "coloring", "matching", "eccentricity",
		"local-cluster", "densest",
	}
	for _, a := range algos {
		var buf bytes.Buffer
		err := run([]string{"-algo", a, "-gen", "rmat", "-scale", "8"}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !strings.Contains(buf.String(), "time:") {
			t.Errorf("%s: no timing line in output", a)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "nope", "-gen", "rmat", "-scale", "8"}, &buf); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunModesAndTrace(t *testing.T) {
	for _, mode := range []string{"auto", "sparse", "dense", "dense-forward"} {
		var buf bytes.Buffer
		err := run([]string{"-algo", "bfs", "-gen", "rmat", "-scale", "8", "-mode", mode, "-trace"}, &buf)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		out := buf.String()
		if !strings.Contains(out, "round") {
			t.Errorf("mode %s: trace missing", mode)
		}
		// A forced mode labels every round with its own name.
		for _, f := range traceRows(t, out) {
			if mode != "auto" && f[3] != mode {
				t.Errorf("mode %s: trace row %q", mode, f)
			}
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-algo", "bfs", "-gen", "rmat", "-scale", "8", "-mode", "bogus"}, &buf); err == nil {
		t.Error("bogus mode accepted")
	}
}

// traceRows returns the fields of every -trace table row in out, failing
// on a row that is not round, frontier, out-degrees, mode, output, ms.
func traceRows(t *testing.T, out string) [][]string {
	t.Helper()
	_, rows, ok := strings.Cut(out, " ms\n")
	if !ok {
		t.Fatalf("no trace table in %q", out)
	}
	rows, _, _ = strings.Cut(rows, "status:")
	var table [][]string
	for _, line := range strings.Split(strings.TrimSpace(rows), "\n") {
		f := strings.Fields(line)
		if len(f) != 6 {
			t.Fatalf("trace row %q has %d fields, want 6", line, len(f))
		}
		if ms, err := strconv.ParseFloat(f[5], 64); err != nil || ms < 0 {
			t.Fatalf("trace row %q: ms column %q", line, f[5])
		}
		table = append(table, f)
	}
	return table
}

// TestTraceIsFastestRepetition runs a 12-round BFS three times: the
// trace table holds one repetition, its round numbers 0 up to 12.
func TestTraceIsFastestRepetition(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "bfs", "-gen", "grid3d", "-scale", "9", "-source", "0", "-rounds", "3", "-trace"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "in 12 rounds") {
		t.Fatalf("want a 12-round BFS, got %q", buf.String())
	}
	rows := traceRows(t, buf.String())
	if len(rows) != 13 {
		t.Fatalf("%d trace rows, want 13 (rounds 0-12 of one repetition)", len(rows))
	}
	for i, f := range rows {
		if f[0] != strconv.Itoa(i) {
			t.Errorf("row %d numbered %s", i, f[0])
		}
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	g, err := ligra.Grid3D(6)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.adj")
	if err := ligra.SaveGraph(path, g, false); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-algo", "components", "-graph", path, "-s"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 components") {
		t.Errorf("torus should be connected: %q", buf.String())
	}
}

// TestRunRefusesDirectedGraph: every undirected-only algorithm refuses a
// directed input (a text file loaded without -s) with exit status 1,
// naming the requirement; a directed-capable one runs on it.
func TestRunRefusesDirectedGraph(t *testing.T) {
	g, err := ligra.RMATDirected(7, 4, ligra.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dir.adj")
	if err := ligra.SaveGraph(path, g, false); err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, r := range algo.Runners() {
		if !r.Undirected {
			continue
		}
		refused++
		var buf, stderr bytes.Buffer
		err := run([]string{"-algo", r.Name, "-graph", path}, &buf)
		if code := exitStatus(err, &stderr); code != 1 || !strings.Contains(stderr.String(), "undirected") {
			t.Errorf("%s on a directed graph: exit %d, stderr %q; want 1 naming the undirected requirement", r.Name, code, stderr.String())
		}
	}
	if refused != 9 {
		t.Errorf("%d undirected-only algorithms, want 9", refused)
	}
	var buf bytes.Buffer
	if err := run([]string{"-algo", "scc", "-graph", path}, &buf); err != nil {
		t.Errorf("scc on a directed graph: %v", err)
	}
}

func TestRunCompressedView(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-algo", "bfs", "-gen", "rmat", "-scale", "8", "-compress"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "compressed representation") {
		t.Error("compression banner missing")
	}
}

func TestRunWeightsAndSource(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-algo", "bellman-ford", "-gen", "grid3d", "-scale", "9",
		"-weights", "31", "-source", "0", "-rounds", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best of 2") {
		t.Error("rounds flag ignored")
	}
	// Out-of-range source rejected.
	if err := run([]string{"-algo", "bfs", "-gen", "rmat", "-scale", "8",
		"-source", "99999999"}, &buf); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestRunRequiresInput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "bfs"}, &buf); err == nil {
		t.Error("no input source accepted")
	}
}

func TestRunStatusLine(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "bfs", "-gen", "rmat", "-scale", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	if !strings.HasSuffix(out, "status: ok") {
		t.Errorf("final line should report status ok, got %q", out)
	}
}

// TestRunTimeoutExitCode proves scripts can tell a deadline hit (exit 2,
// partial result reported) from a load/usage error (exit 1) and success
// (exit 0).
func TestRunTimeoutExitCode(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-algo", "pagerank", "-gen", "rmat", "-scale", "12",
		"-timeout", "1ns"}, &buf)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	out := buf.String()
	for _, want := range []string{"interrupted:", "partial result:", "status: timeout (exit 2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	var stderr bytes.Buffer
	if code := exitStatus(err, &stderr); code != 2 {
		t.Errorf("exitStatus(timeout) = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "timeout") {
		t.Errorf("stderr should name the timeout: %q", stderr.String())
	}
	if code := exitStatus(nil, &stderr); code != 0 {
		t.Errorf("exitStatus(nil) = %d, want 0", code)
	}
	if code := exitStatus(errors.New("no such file"), &stderr); code != 1 {
		t.Errorf("exitStatus(load error) = %d, want 1", code)
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g, err := ligra.RMAT(8, 8, ligra.Graph500RMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	defaultSource := func(g ligra.View) uint32 {
		t.Helper()
		v, err := algo.DefaultSource(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v := defaultSource(g)
	for u := 0; u < g.NumVertices(); u++ {
		if g.OutDegree(uint32(u)) > g.OutDegree(v) {
			t.Fatalf("vertex %d beats claimed max %d", u, v)
		}
	}
	// The path 0-1-2-3 ties vertices 1 and 2 at degree 2: the smallest ID
	// wins. A graph with no vertices keeps source 0.
	path, err := ligra.ReadAdjacency(strings.NewReader("AdjacencyGraph\n4\n6\n0\n1\n3\n5\n1\n0\n2\n1\n3\n2\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if v := defaultSource(path); v != 1 {
		t.Errorf("tied degrees: default source %d, want 1", v)
	}
	empty, err := ligra.ReadAdjacency(strings.NewReader("AdjacencyGraph\n0\n0\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if v := defaultSource(empty); v != 0 {
		t.Errorf("empty graph: default source %d, want 0", v)
	}
}

// TestStatsCountOneRepetition: -stats reports the counters of the
// repetition the trace table shows, so calls= equals its rows.
func TestStatsCountOneRepetition(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "bfs", "-gen", "grid3d", "-scale", "9", "-source", "0", "-rounds", "3", "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	table, stats, ok := strings.Cut(buf.String(), "traversal stats:")
	if !ok {
		t.Fatalf("no traversal stats in %q", buf.String())
	}
	rows := traceRows(t, table+"status:")
	if want := "calls=" + strconv.Itoa(len(rows)) + " "; !strings.Contains(stats, want) {
		t.Fatalf("%d trace rows, stats %q: want %q", len(rows), stats, want)
	}
}
