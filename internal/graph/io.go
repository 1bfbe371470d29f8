package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"

	"ligra/internal/faultinject"
)

// The text exchange format is Ligra's AdjacencyGraph format (inherited from
// the Problem Based Benchmark Suite):
//
//	AdjacencyGraph            (or WeightedAdjacencyGraph)
//	<n>
//	<m>
//	<offset 0> ... <offset n-1>
//	<edge 0> ... <edge m-1>
//	[<weight 0> ... <weight m-1>]     (weighted variant only)
//
// Tokens may be separated by any whitespace, so both the one-token-per-line
// layout Ligra writes and space-separated layouts parse.

const (
	headerAdjacency         = "AdjacencyGraph"
	headerWeightedAdjacency = "WeightedAdjacencyGraph"
)

// ReadAdjacency parses an AdjacencyGraph or WeightedAdjacencyGraph stream.
// symmetric declares whether the file stores an undirected graph (the
// format itself does not record this; Ligra passes it as the -s flag).
func ReadAdjacency(r io.Reader, symmetric bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(bufio.ScanWords)

	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	nextInt := func(what string) (int64, error) {
		tok, err := next()
		if err != nil {
			return 0, fmt.Errorf("graph: reading %s: %w", what, err)
		}
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("graph: bad %s %q: %w", what, tok, err)
		}
		return v, nil
	}

	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	var weighted bool
	switch header {
	case headerAdjacency:
	case headerWeightedAdjacency:
		weighted = true
	default:
		return nil, fmt.Errorf("graph: unrecognized header %q", header)
	}

	n64, err := nextInt("vertex count")
	if err != nil {
		return nil, err
	}
	m64, err := nextInt("edge count")
	if err != nil {
		return nil, err
	}
	if n64 < 0 || m64 < 0 {
		return nil, fmt.Errorf("graph: negative size (n=%d m=%d)", n64, m64)
	}
	if n64 > 1<<31 || m64 > 1<<40 {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)

	// Grow the arrays as tokens actually arrive rather than trusting the
	// declared counts: a hostile header claiming billions of vertices must
	// not allocate more memory than the input itself justifies.
	const preallocCap = 1 << 20
	offsets := make([]int64, 0, min(n+1, preallocCap))
	for v := 0; v < n; v++ {
		o, err := nextInt("offset")
		if err != nil {
			return nil, err
		}
		offsets = append(offsets, o)
	}
	offsets = append(offsets, m64)

	edges := make([]uint32, 0, min(m, preallocCap))
	for i := 0; i < m; i++ {
		e, err := nextInt("edge")
		if err != nil {
			return nil, err
		}
		if e < 0 || e >= n64 {
			return nil, fmt.Errorf("graph: edge %d targets out-of-range vertex %d", i, e)
		}
		edges = append(edges, uint32(e))
	}

	var weights []int32
	if weighted {
		weights = make([]int32, 0, min(m, preallocCap))
		for i := 0; i < m; i++ {
			w, err := nextInt("weight")
			if err != nil {
				return nil, err
			}
			if w < -1<<31 || w > 1<<31-1 {
				return nil, fmt.Errorf("graph: weight %d value %d overflows int32", i, w)
			}
			weights = append(weights, int32(w))
		}
	}
	return FromCSR(offsets, edges, weights, symmetric)
}

// WriteAdjacency writes g in the (Weighted)AdjacencyGraph text format.
// It accepts any View: offsets are rebuilt from out-degrees, so
// compressed, mapped, and delta-overlaid graphs serialize without first
// materializing a CSR copy.
func WriteAdjacency(w io.Writer, g View) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	header := headerAdjacency
	if g.Weighted() {
		header = headerWeightedAdjacency
	}
	n := g.NumVertices()
	if _, err := fmt.Fprintf(bw, "%s\n%d\n%d\n", header, n, g.NumEdges()); err != nil {
		return err
	}
	var scratch []byte
	writeInt := func(v int64) error {
		scratch = strconv.AppendInt(scratch[:0], v, 10)
		scratch = append(scratch, '\n')
		_, err := bw.Write(scratch)
		return err
	}
	var off int64
	for v := 0; v < n; v++ {
		if err := writeInt(off); err != nil {
			return err
		}
		off += int64(g.OutDegree(uint32(v)))
	}
	var buf Row
	for v := 0; v < n; v++ {
		ts, _ := g.OutRow(uint32(v), &buf)
		for _, d := range ts {
			if err := writeInt(int64(d)); err != nil {
				return err
			}
		}
	}
	if g.Weighted() {
		for v := 0; v < n; v++ {
			_, ws := g.OutRow(uint32(v), &buf)
			for _, w := range ws {
				if err := writeInt(int64(w)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Binary format: a compact little-endian encoding for fast loading.
//
//	magic   [8]byte  "LIGRAGO1"
//	flags   uint32   bit0 weighted, bit1 symmetric
//	n       uint64
//	m       uint64
//	offsets [n+1]int64
//	edges   [m]uint32
//	weights [m]int32  (weighted only)
var binaryMagic = [8]byte{'L', 'I', 'G', 'R', 'A', 'G', 'O', '1'}

const (
	flagWeighted  = 1 << 0
	flagSymmetric = 1 << 1
)

// WriteBinary writes g in the binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var flags uint32
	if g.Weighted() {
		flags |= flagWeighted
	}
	if g.symmetric {
		flags |= flagSymmetric
	}
	for _, v := range []any{flags, uint64(g.n), uint64(g.m)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.edges); err != nil {
		return err
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var flags uint32
	var n64, m64 uint64
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("graph: reading flags: %w", noEOF(err))
	}
	if flags&^uint32(flagWeighted|flagSymmetric) != 0 {
		return nil, fmt.Errorf("graph: unknown flag bits %#x", flags&^uint32(flagWeighted|flagSymmetric))
	}
	if err := binary.Read(br, binary.LittleEndian, &n64); err != nil {
		return nil, fmt.Errorf("graph: reading vertex count: %w", noEOF(err))
	}
	if err := binary.Read(br, binary.LittleEndian, &m64); err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", noEOF(err))
	}
	if n64 > 1<<31 || m64 > 1<<40 {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)
	// Chunked reads keep allocation proportional to the bytes actually
	// present, so a corrupt header cannot force a giant allocation.
	offsets, err := readChunked[int64](br, n+1, nil)
	if err != nil {
		return nil, fmt.Errorf("graph: reading %d offsets: %w", n+1, err)
	}
	edges, err := readChunked[uint32](br, m, nil)
	if err != nil {
		return nil, fmt.Errorf("graph: reading %d edges: %w", m, err)
	}
	var weights []int32
	if flags&flagWeighted != 0 {
		if weights, err = readChunked[int32](br, m, nil); err != nil {
			return nil, fmt.Errorf("graph: reading %d weights: %w", m, err)
		}
	}
	return FromCSR(offsets, edges, weights, flags&flagSymmetric != 0)
}

// readChunked reads total fixed-size little-endian values in bounded
// chunks, appending to dst. A payload that ends early reports
// io.ErrUnexpectedEOF (with how far it got), never a bare io.EOF, so
// truncation is distinguishable from a cleanly missing section.
func readChunked[T any](r io.Reader, total int, dst []T) ([]T, error) {
	const chunk = 1 << 14
	buf := make([]T, min(total, chunk))
	read := 0
	for total > 0 {
		k := min(total, chunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:k]); err != nil {
			return nil, fmt.Errorf("truncated after %d values: %w", read, noEOF(err))
		}
		dst = append(dst, buf[:k]...)
		total -= k
		read += k
	}
	return dst, nil
}

// noEOF converts io.EOF into io.ErrUnexpectedEOF: inside a structured
// payload a clean EOF still means the input ended mid-record.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// LoadFile reads a CSR graph from path, detecting the format by content
// (never by file name): the LIGRAGO1 magic selects the binary reader,
// anything unmagic'd goes to the text parser. Files in formats this
// function cannot decode into a CSR *Graph — the LIGRAGC1 compressed
// format, or a LIGRAG*-magic'd version this build does not know — get a
// descriptive error naming the format instead of a mid-file parse failure;
// use compress.LoadView to load any format polymorphically.
func LoadFile(path string, symmetric bool) (*Graph, error) {
	if err := faultinject.OnLoad(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var prefix [8]byte
	k, _ := io.ReadAtLeast(f, prefix[:], 1)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	switch format := DetectFormat(prefix[:k]); format {
	case FormatBinary:
		return ReadBinary(f)
	case FormatCompressed:
		return nil, fmt.Errorf("graph: %s is a %s file; load it with the compress package (compress.LoadView or ligra.Load)", path, format)
	case FormatUnknownVersion:
		return nil, fmt.Errorf("graph: %s has unrecognized magic %q: not a format this build understands", path, prefix[:k])
	default:
		return ReadAdjacency(f, symmetric)
	}
}

// SaveFile writes a graph to path; binary selects the binary format.
func SaveFile(path string, g *Graph, binaryFormat bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if binaryFormat {
		if err := WriteBinary(f, g); err != nil {
			return err
		}
	} else if err := WriteAdjacency(f, g); err != nil {
		return err
	}
	return f.Close()
}
