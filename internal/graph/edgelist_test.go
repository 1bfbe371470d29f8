package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a SNAP-style comment
% another comment style

0 1
1 2 7
2 0
`
	g, err := ReadEdgeList(strings.NewReader(in), BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if w12 := edgeWeight(g, 1, 2); w12 != 7 {
		t.Errorf("weight(1->2) = %d, want 7", w12)
	}
	// Unweighted edges default to 1.
	if w01 := edgeWeight(g, 0, 1); w01 != 1 {
		t.Errorf("weight(0->1) = %d, want default 1", w01)
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	// IDs with gaps: n = max + 1.
	g, err := ReadEdgeList(strings.NewReader("5 100\n"), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 101 {
		t.Errorf("n = %d, want 101", g.NumVertices())
	}
}

func TestReadEdgeListSymmetrize(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"), BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Symmetric() || g.NumEdges() != 4 {
		t.Errorf("symmetric=%v m=%d", g.Symmetric(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                   // empty
		"#only comments\n",   // no edges
		"0\n",                // missing target
		"x 1\n",              // bad source
		"0 y\n",              // bad target
		"-1 2\n",             // negative
		"0 1 zz\n",           // bad weight
		"99999999999999 0\n", // out of range
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), BuildOptions{}); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := sampleGraph(t, weighted)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf, BuildOptions{Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, g2) {
			t.Errorf("weighted=%v: edge-list round trip mismatch", weighted)
		}
	}
}
