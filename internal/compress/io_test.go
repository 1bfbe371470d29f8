package compress

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"ligra/internal/gen"
	"ligra/internal/graph"
)

// testGraphs builds the graph shapes the format must cover: symmetric,
// directed (two sides on disk), weighted, and degenerate sizes.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	gs["rmat"] = mustRMAT(t, 9, 1)
	var err error
	if gs["grid"], err = gen.Grid3D(6); err != nil {
		t.Fatal(err)
	}
	if gs["directed"], err = gen.RMATDirected(8, 4, gen.PBBSRMAT, 2); err != nil {
		t.Fatal(err)
	}
	gs["weighted"] = mustRMAT(t, 8, 3).AddWeights(graph.HashWeight(1000))
	if gs["single"], err = graph.FromEdges(1, nil, graph.BuildOptions{Symmetrize: true}); err != nil {
		t.Fatal(err)
	}
	if gs["isolated"], err = graph.FromEdges(5, nil, graph.BuildOptions{Symmetrize: true}); err != nil {
		t.Fatal(err)
	}
	return gs
}

// assertSameAdjacency compares two views edge for edge, both sides.
func assertSameAdjacency(t *testing.T, name string, want, got graph.View) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() ||
		got.Weighted() != want.Weighted() || got.Symmetric() != want.Symmetric() {
		t.Fatalf("%s: shape differs: n=%d/%d m=%d/%d w=%t/%t sym=%t/%t", name,
			want.NumVertices(), got.NumVertices(), want.NumEdges(), got.NumEdges(),
			want.Weighted(), got.Weighted(), want.Symmetric(), got.Symmetric())
	}
	var wantBuf, gotBuf graph.Row
	row := func(v graph.View, u uint32, in bool, buf *graph.Row) ([]uint32, []int32) {
		if in {
			return v.InRow(u, buf, math.MaxInt)
		}
		return v.OutRow(u, buf)
	}
	for v := uint32(0); int(v) < want.NumVertices(); v++ {
		for _, in := range []bool{false, true} {
			a, aw := row(want, v, in, &wantBuf)
			b, bw := row(got, v, in, &gotBuf)
			if !slices.Equal(a, b) || !slices.Equal(aw, bw) {
				t.Fatalf("%s: vertex %d (in=%t) row %v %v vs %v %v", name, v, in, a, aw, b, bw)
			}
		}
	}
}

func TestWriteReadCompressedRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		c, err := Compress(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := WriteCompressed(&buf, c); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if buf.Len()%8 != 0 {
			t.Errorf("%s: file length %d not 8-byte aligned", name, buf.Len())
		}
		back, err := ReadCompressed(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		assertSameAdjacency(t, name, g, back)
		// Writing the re-read graph must produce identical bytes.
		var buf2 bytes.Buffer
		if err := WriteCompressed(&buf2, back); err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("%s: rewrite produced different bytes (%d vs %d)", name, buf.Len(), buf2.Len())
		}
	}
}

func TestOpenMappedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, g := range testGraphs(t) {
		c, err := Compress(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(dir, name+".gc")
		if err := WriteCompressedFile(path, c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("%s: OpenMapped: %v", name, err)
		}
		assertSameAdjacency(t, name, g, m)
		if m.MappedBytes() > 0 {
			if m.MemoryFootprint() != 0 {
				t.Errorf("%s: mapped graph reports heap footprint %d", name, m.MemoryFootprint())
			}
			if m.FormatName() != "compressed+mmap" {
				t.Errorf("%s: FormatName = %q", name, m.FormatName())
			}
		}
		if err := m.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
		if err := m.Close(); err != nil {
			t.Errorf("%s: second Close: %v", name, err)
		}
	}
}

func TestHeapReaderReportsFormat(t *testing.T) {
	g := mustRMAT(t, 8, 4)
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.FormatName() != "compressed" {
		t.Errorf("FormatName = %q", c.FormatName())
	}
	if c.MappedBytes() != 0 {
		t.Errorf("MappedBytes = %d", c.MappedBytes())
	}
	if c.MemoryFootprint() != c.SizeBytes() {
		t.Errorf("MemoryFootprint %d != SizeBytes %d", c.MemoryFootprint(), c.SizeBytes())
	}
}

func TestLoadViewSniffsFormats(t *testing.T) {
	dir := t.TempDir()
	g := mustRMAT(t, 8, 6)

	adjPath := filepath.Join(dir, "g.adj")
	if err := graph.SaveFile(adjPath, g, false); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "misnamed.adj") // binary content, text name
	if err := graph.SaveFile(binPath, g, true); err != nil {
		t.Fatal(err)
	}
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	gcPath := filepath.Join(dir, "g.gc")
	if err := WriteCompressedFile(gcPath, c); err != nil {
		t.Fatal(err)
	}

	if v, err := LoadView(adjPath, true, false); err != nil {
		t.Fatalf("text: %v", err)
	} else if _, ok := v.(*graph.Graph); !ok {
		t.Fatalf("text loaded as %T", v)
	}
	// Content, not the file name, selects the reader.
	if v, err := LoadView(binPath, true, false); err != nil {
		t.Fatalf("binary: %v", err)
	} else if _, ok := v.(*graph.Graph); !ok {
		t.Fatalf("binary loaded as %T", v)
	}
	for _, mmap := range []bool{false, true} {
		v, err := LoadView(gcPath, false, mmap)
		if err != nil {
			t.Fatalf("compressed (mmap=%t): %v", mmap, err)
		}
		cg, ok := v.(*CompressedGraph)
		if !ok {
			t.Fatalf("compressed loaded as %T", v)
		}
		assertSameAdjacency(t, "loadview", g, cg)
	}

	// graph.LoadFile must name the compressed format instead of
	// mis-parsing it as text.
	if _, err := graph.LoadFile(gcPath, false); err == nil {
		t.Fatal("LoadFile accepted a compressed file")
	} else if want := "LIGRAGC1"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("LoadFile error %q does not name the format", err)
	}
	// A future LIGRAG* version is rejected with a descriptive error, not
	// handed to the text parser.
	futPath := filepath.Join(dir, "future.gc")
	if err := os.WriteFile(futPath, []byte("LIGRAGZ9whatever"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.LoadFile(futPath, false); err == nil {
		t.Fatal("LoadFile accepted an unknown LIGRAG* version")
	}
	if _, err := LoadView(futPath, false, false); err == nil {
		t.Fatal("LoadView accepted an unknown LIGRAG* version")
	}
	// mmap of a non-compressed file is a descriptive error.
	if _, err := LoadView(adjPath, true, true); err == nil {
		t.Fatal("LoadView mmap'd a text file")
	}
}

// corrupt returns a copy of buf with the byte at off XORed.
func corrupt(buf []byte, off int) []byte {
	out := append([]byte(nil), buf...)
	out[off] ^= 0xFF
	return out
}

func TestReadCompressedRejectsCorruptInput(t *testing.T) {
	g := mustRMAT(t, 8, 9).AddWeights(graph.HashWeight(50))
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, c); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadCompressed(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}

	cases := map[string][]byte{
		"empty":            {},
		"short header":     valid[:20],
		"bad magic":        corrupt(valid, 0),
		"unknown flags":    corrupt(valid, 8),
		"nonzero reserved": corrupt(valid, 12),
		"huge n":           corrupt(valid, 22),
		"huge m":           corrupt(valid, 30),
		"huge outBytes":    corrupt(valid, 38),
		"corrupt offsets":  corrupt(valid, headerSize+8),
		"corrupt degree":   corrupt(valid, headerSize+(c.n+1)*8),
		"corrupt data":     corrupt(valid, len(valid)-9),
		"truncated half":   valid[:len(valid)/2],
		"truncated tail":   valid[:len(valid)-4],
	}
	for name, in := range cases {
		if _, err := ReadCompressed(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Every single-byte corruption of the payload must be rejected or
	// still yield a fully traversable graph (validation means the panic
	// fast path can never fire on accepted input).
	for off := headerSize; off < len(valid); off += 7 {
		in := corrupt(valid, off)
		cg, err := ReadCompressed(bytes.NewReader(in))
		if err != nil {
			continue
		}
		decodeAll(cg)
	}
}

// decodeAll decodes every row of c, both sides, with the trusting
// traversal decoder.
func decodeAll(c *CompressedGraph) {
	var buf graph.Row
	for v := uint32(0); int(v) < c.NumVertices(); v++ {
		c.OutRow(v, &buf)
		c.InRow(v, &buf, math.MaxInt)
	}
}

// aligned8 copies b into an 8-byte-aligned buffer, because fromMapping
// reinterprets section bytes as []int64 — real callers pass page-aligned
// mmap regions.
func aligned8(b []byte) []byte {
	w := make([]uint64, (len(b)+7)/8)
	if len(b) == 0 {
		return nil
	}
	out := unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8)[:len(b)]
	copy(out, b)
	return out
}

func TestFromMappingChecksExactSize(t *testing.T) {
	g := mustRMAT(t, 8, 10)
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, c); err != nil {
		t.Fatal(err)
	}
	valid := aligned8(buf.Bytes())
	m, err := fromMapping(valid)
	if err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	assertSameAdjacency(t, "mapping", g, m)
	if _, err := fromMapping(aligned8(append(append([]byte(nil), valid...), 0, 0, 0, 0, 0, 0, 0, 0))); err == nil {
		t.Error("oversized mapping accepted")
	}
	if _, err := fromMapping(valid[:len(valid)-8]); err == nil {
		t.Error("truncated mapping accepted")
	}
}

// FuzzReadCompressed checks the compressed reader never panics on corrupt
// input — truncations, header corruption, overlong varints — and that any
// graph it accepts is fully traversable and round-trips (mirrors
// FuzzReadBinary for the LIGRAGO1 format).
func FuzzReadCompressed(f *testing.F) {
	seed := func(g *graph.Graph, err error) {
		if err != nil {
			f.Fatal(err)
		}
		c, err := Compress(g)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCompressed(&buf, c); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(append([]byte(nil), valid...))
		// Truncations at the header and every section boundary.
		n := int64(g.NumVertices())
		cuts := []int64{4, 8, 12, 16, 24, 32, 40, headerSize,
			headerSize + (n+1)*8, headerSize + (n+1)*8 + n*4, int64(len(valid)) - 1}
		for _, cut := range cuts {
			if cut >= 0 && cut < int64(len(valid)) {
				f.Add(append([]byte(nil), valid[:cut]...))
			}
		}
		// Corrupt each header field and the first bytes of each section.
		for _, off := range []int{0, 8, 12, 16, 24, 32, 40, headerSize, len(valid) - 2} {
			if off < len(valid) {
				f.Add(corrupt(valid, off))
			}
		}
	}
	seed(gen.RMAT(6, 4, gen.PBBSRMAT, 1))
	seed(gen.RMATDirected(6, 4, gen.PBBSRMAT, 2))
	w, err := gen.RMAT(5, 4, gen.PBBSRMAT, 3)
	if err != nil {
		f.Fatal(err)
	}
	seed(w.AddWeights(graph.HashWeight(100)), nil)
	seed(graph.FromEdges(1, nil, graph.BuildOptions{Symmetrize: true}))
	// An overlong varint (11 continuation bytes) planted in a data
	// section: the validator must reject it, never spin or panic.
	f.Add([]byte("LIGRAGC1\x00\x00\x00\x00\x00\x00\x00\x00" + // flags+reserved
		"\x02\x00\x00\x00\x00\x00\x00\x00" + // n=2
		"\x01\x00\x00\x00\x00\x00\x00\x00" + // m=1
		"\x0b\x00\x00\x00\x00\x00\x00\x00" + // outBytes=11
		"\x00\x00\x00\x00\x00\x00\x00\x00" + // inBytes=0... (truncated anyway)
		"\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80"))
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := ReadCompressed(bytes.NewReader(in))
		if err != nil {
			return
		}
		// Accepted graphs must be fully decodable with the trusting fast
		// path (this is exactly what traversal does).
		decodeAll(c)
		var buf bytes.Buffer
		if err := WriteCompressed(&buf, c); err != nil {
			t.Fatalf("cannot re-serialize accepted graph: %v", err)
		}
		c2, err := ReadCompressed(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if c2.NumVertices() != c.NumVertices() || c2.NumEdges() != c.NumEdges() {
			t.Fatal("round trip changed sizes")
		}
		// The mapping path applies the same validation plus exact-size
		// checks; it must agree on acceptance.
		if _, err := fromMapping(aligned8(buf.Bytes())); err != nil {
			t.Fatalf("fromMapping rejects what ReadCompressed accepted: %v", err)
		}
	})
}
