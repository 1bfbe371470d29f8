// Package compress implements byte-compressed graph storage after Ligra+
// (Shun, Dhulipala, Blelloch, DCC 2015): each vertex's sorted adjacency
// list is difference-encoded — the first target as a signed (zig-zag)
// delta from the vertex ID, subsequent targets as gaps from their
// predecessor — and packed with LEB128 variable-length bytes. Weights, if
// present, are zig-zag varints interleaved after each target.
//
// CompressedGraph implements graph.View, so every algorithm and edgeMap
// traversal runs unmodified on compressed graphs; the ablation-compress
// experiment measures the decode overhead against the CSR representation,
// and the parity tests in this package hold every registered algorithm to
// bit-identical results across backends.
//
// # Cost model
//
// Encoding (Compress) is one parallel O(m) pass per stored side; expect
// ~2x size reduction on power-law graphs (the gap distribution is what
// compresses — locality-skewed rows encode in 1-2 bytes per edge against
// CSR's fixed 4, low-locality rows approach parity). Decoding is the
// recurring cost: edgeMap fetches each row through graph.View's rows,
// and CompressedGraph decodes it into the caller's scratch with one
// varint loop (one branch per continuation byte) where CSR hands out a
// slice in place. A pull round under DenseEarlyExit asks for a short prefix first,
// so BFS decodes little past a destination's first frontier hit. At scale
// 16 on two cores that costs ~1.5x CSR for BFS and 3.5-4x for PageRank and
// Components (the compress/* rows of BENCH_baseline.json). The regime
// where compression approaches CSR speed is bandwidth-bound multicore,
// where decode hides behind memory stalls. Degrees are stored explicitly,
// so degree(v) and the direction heuristic's prefix sums never decode
// anything.
//
// # On-disk format and loading
//
// WriteCompressed/ReadCompressed serialize the LIGRAGC1 format (normative
// spec in docs/FORMATS.md); OpenMapped memory-maps a file in place for a
// near-zero heap footprint. ReadCompressed and the mapping path fully
// validate input (one parallel O(m) decode pass) so the panicking
// fast-path decoder used during traversal never sees unverified bytes:
// corrupt input is a load-time error, never a runtime panic. LoadView is
// the polymorphic entry point that sniffs any supported format.
package compress

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// CompressedGraph is a byte-coded adjacency representation of a graph.
// Immutable after construction; safe for concurrent traversal.
type CompressedGraph struct {
	n int
	m int64

	outOffsets []int64 // byte offset of vertex v's out-list (len n+1)
	outDeg     []int32 // out-degrees (decode needs the count)
	outData    []byte

	inOffsets []int64
	inDeg     []int32
	inData    []byte

	weighted  bool
	symmetric bool

	// mapped holds the raw mmap'd file when the graph was loaded with
	// OpenMapped; the section slices above alias it. Nil for heap graphs.
	mapped []byte
}

var _ graph.View = (*CompressedGraph)(nil)

// Compress encodes g. Adjacency rows must be sorted by target ID (graphs
// built by graph.FromEdges are); rows with unsorted targets are rejected
// because gap encoding would be lossy.
func Compress(g *graph.Graph) (*CompressedGraph, error) {
	n := g.NumVertices()
	c := &CompressedGraph{
		n:         n,
		m:         g.NumEdges(),
		weighted:  g.Weighted(),
		symmetric: g.Symmetric(),
	}
	var err error
	c.outOffsets, c.outDeg, c.outData, err = encodeSide(n, g.Weighted(), func(v uint32) ([]uint32, []int32) {
		return g.OutRow(v, nil)
	})
	if err != nil {
		return nil, err
	}
	if !g.Symmetric() {
		c.inOffsets, c.inDeg, c.inData, err = encodeSide(n, g.Weighted(), func(v uint32) ([]uint32, []int32) {
			return g.InRow(v, nil, math.MaxInt)
		})
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// encodeSide builds the byte arrays for one edge direction from its rows.
func encodeSide(n int, weighted bool, row func(v uint32) ([]uint32, []int32)) ([]int64, []int32, []byte, error) {
	offsets := make([]int64, n+1)
	degs := make([]int32, n)
	// First pass: encode each row independently into per-vertex buffers
	// (parallel), then concatenate with a scan.
	rows := make([][]byte, n)
	var encErr error
	// Encoding has no deadline to observe: its loops fail only with a
	// contained panic, which is returned.
	ctx := context.Background()
	if err := parallel.For(ctx, n, func(i int) {
		v := uint32(i)
		ts, ws := row(v)
		var buf []byte
		for j, d := range ts {
			if j == 0 {
				buf = appendZigzag(buf, int64(d)-int64(v))
			} else {
				if d < ts[j-1] {
					encErr = fmt.Errorf("compress: unsorted adjacency row at vertex %d", v)
					return
				}
				buf = appendUvarint(buf, uint64(d-ts[j-1]))
			}
			if weighted {
				buf = appendZigzag(buf, int64(ws[j]))
			}
		}
		rows[i] = buf
		offsets[i] = int64(len(buf)) // the row's length until the scan below
		degs[i] = int32(len(ts))
	}); err != nil {
		return nil, nil, nil, err
	}
	if encErr != nil {
		return nil, nil, nil, encErr
	}
	total, err := parallel.ScanExclusive(ctx, offsets[:n], offsets[:n])
	if err != nil {
		return nil, nil, nil, err
	}
	offsets[n] = total
	data := make([]byte, total)
	if err := parallel.For(ctx, n, func(i int) {
		copy(data[offsets[i]:], rows[i])
	}); err != nil {
		return nil, nil, nil, err
	}
	return offsets, degs, data, nil
}

// NumVertices returns |V|.
func (c *CompressedGraph) NumVertices() int { return c.n }

// NumEdges returns the number of directed edges.
func (c *CompressedGraph) NumEdges() int64 { return c.m }

// Weighted reports whether edges carry weights.
func (c *CompressedGraph) Weighted() bool { return c.weighted }

// Symmetric reports whether the graph is undirected.
func (c *CompressedGraph) Symmetric() bool { return c.symmetric }

// OutDegree returns the out-degree of v.
func (c *CompressedGraph) OutDegree(v uint32) int { return int(c.outDeg[v]) }

// InDegree returns the in-degree of v.
func (c *CompressedGraph) InDegree(v uint32) int {
	if c.symmetric {
		return int(c.outDeg[v])
	}
	return int(c.inDeg[v])
}

// OutNeighbors is View's temporary per-edge shim over OutRow.
func (c *CompressedGraph) OutNeighbors(v uint32, fn func(d uint32, w int32) bool) {
	graph.OutNeighbors(c, v, fn)
}

// OutRow decodes v's out-row into buf.
func (c *CompressedGraph) OutRow(v uint32, buf *graph.Row) ([]uint32, []int32) {
	return c.decodeRow(v, c.outOffsets, c.outDeg, c.outData, buf, math.MaxInt)
}

// InRow decodes the first max edges of v's in-row into buf.
func (c *CompressedGraph) InRow(v uint32, buf *graph.Row, max int) ([]uint32, []int32) {
	if c.symmetric {
		return c.decodeRow(v, c.outOffsets, c.outDeg, c.outData, buf, max)
	}
	return c.decodeRow(v, c.inOffsets, c.inDeg, c.inData, buf, max)
}

// decodeRow is the traversal decoder: one varint loop writing the first
// max edges of v's row into buf's arrays, grown only when a row outgrows
// them.
func (c *CompressedGraph) decodeRow(v uint32, offsets []int64, degs []int32, data []byte, buf *graph.Row, max int) ([]uint32, []int32) {
	k := min(int(degs[v]), max)
	if k <= 0 {
		return nil, nil
	}
	ts := slices.Grow(buf.Targets[:0], k)[:k]
	buf.Targets = ts
	p := data[offsets[v]:offsets[v+1]]
	// First target: signed delta from v; the rest: gaps.
	delta, p := readZigzag(p)
	d := uint32(int64(v) + delta)
	if !c.weighted {
		ts[0] = d
		for i := 1; i < k; i++ {
			var gap uint64
			gap, p = readUvarint(p)
			d += uint32(gap)
			ts[i] = d
		}
		return ts, nil
	}
	ws := slices.Grow(buf.Weights[:0], k)[:k]
	buf.Weights = ws
	for i := 0; i < k; i++ {
		if i > 0 {
			var gap uint64
			gap, p = readUvarint(p)
			d += uint32(gap)
		}
		var w int64
		w, p = readZigzag(p)
		ts[i], ws[i] = d, int32(w)
	}
	return ts, ws
}

// SizeBytes returns the byte footprint of the compressed edge arrays plus
// per-vertex metadata (offsets and degrees).
func (c *CompressedGraph) SizeBytes() int64 {
	meta := int64(len(c.outOffsets))*8 + int64(len(c.outDeg))*4 +
		int64(len(c.inOffsets))*8 + int64(len(c.inDeg))*4
	return meta + int64(len(c.outData)) + int64(len(c.inData))
}

// appendUvarint appends x in LEB128.
func appendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// readUvarint decodes a LEB128 value, returning the rest of the buffer.
func readUvarint(p []byte) (uint64, []byte) {
	var x uint64
	var shift uint
	for i, b := range p {
		if b < 0x80 {
			return x | uint64(b)<<shift, p[i+1:]
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	panic("compress: truncated varint")
}

// appendZigzag appends a signed value using zig-zag + LEB128.
func appendZigzag(buf []byte, x int64) []byte {
	return appendUvarint(buf, uint64(x<<1)^uint64(x>>63))
}

// readZigzag decodes a zig-zag varint.
func readZigzag(p []byte) (int64, []byte) {
	u, rest := readUvarint(p)
	return int64(u>>1) ^ -int64(u&1), rest
}
