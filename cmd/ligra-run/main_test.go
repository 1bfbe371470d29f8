package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"ligra"
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
		_, rows, _ := strings.Cut(out, "output\n")
		rows, _, _ = strings.Cut(rows, "status:")
		for _, line := range strings.Split(strings.TrimSpace(rows), "\n") {
			if f := strings.Fields(line); mode != "auto" && (len(f) != 5 || f[3] != mode) {
				t.Errorf("mode %s: trace row %q", mode, line)
			}
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-algo", "bfs", "-gen", "rmat", "-scale", "8", "-mode", "bogus"}, &buf); err == nil {
		t.Error("bogus mode accepted")
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
	v := maxDegreeVertex(g)
	for u := 0; u < g.NumVertices(); u++ {
		if g.OutDegree(uint32(u)) > g.OutDegree(v) {
			t.Fatalf("vertex %d beats claimed max %d", u, v)
		}
	}
}
