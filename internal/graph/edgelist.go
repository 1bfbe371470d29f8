package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses the ubiquitous whitespace-separated edge-list
// format (as used by SNAP datasets): one "src dst [weight]" per line,
// with '#' or '%' comment lines ignored. Vertex IDs may be arbitrary
// non-negative integers; they are kept as-is, with n = max ID + 1 (IDs
// beyond 2^31 are rejected). The graph is built with the given options
// (symmetrize for undirected datasets, dedup, etc.).
func ReadEdgeList(r io.Reader, opts BuildOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: want 'src dst [w]', got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: bad source %q", lineNo, fields[0])
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: bad target %q", lineNo, fields[1])
		}
		if src < 0 || dst < 0 || src >= 1<<31 || dst >= 1<<31 {
			return nil, fmt.Errorf("graph: edge list line %d: vertex ID out of range", lineNo)
		}
		var w int64 = 1
		if len(fields) >= 3 {
			w, err = strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: edge list line %d: bad weight %q", lineNo, fields[2])
			}
		}
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
		edges = append(edges, Edge{Src: uint32(src), Dst: uint32(dst), Weight: int32(w)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxID < 0 {
		return nil, fmt.Errorf("graph: edge list contains no edges")
	}
	return FromEdges(int(maxID+1), edges, opts)
}

// WriteEdgeList writes g as one "src dst [weight]" line per directed
// edge, a format every graph tool ingests. It accepts any View.
func WriteEdgeList(w io.Writer, g View) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# ligra-go edge list: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	var buf Row
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		ts, ws := g.OutRow(v, &buf)
		for i, d := range ts {
			var err error
			if ws != nil {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", v, d, ws[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, d)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
