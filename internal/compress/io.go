package compress

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"ligra/internal/faultinject"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// The LIGRAGC1 on-disk format (normative spec in docs/FORMATS.md) is the
// compressed counterpart of the LIGRAGO1 binary CSR format: a fixed
// little-endian header followed by the encoded sections, each starting on
// an 8-byte boundary so a memory-mapped file can be used in place — the
// offset arrays are read directly out of the mapping, never copied.
//
//	0   magic      [8]byte  "LIGRAGC1"
//	8   flags      uint32   bit0 weighted, bit1 symmetric; others must be 0
//	12  reserved   uint32   must be 0
//	16  n          uint64   vertex count
//	24  m          uint64   directed edge count
//	32  outBytes   uint64   length of the out-edge byte-code section
//	40  inBytes    uint64   length of the in-edge byte-code section (0 iff symmetric)
//	48  outOffsets [n+1]int64
//	    outDeg     [n]int32            (zero-padded to the next 8-byte boundary)
//	    outData    [outBytes]byte      (zero-padded to the next 8-byte boundary)
//	    inOffsets  [n+1]int64          } present only when the graph is
//	    inDeg      [n]int32  (padded)  } directed (flags bit1 clear)
//	    inData     [inBytes]byte (padded)
//
// ReadCompressed fully validates the payload (section bounds, offset
// monotonicity, degree sums, and a parallel decode pass over every row) so
// that the panic-free fast-path decoder in compress.go can trust the bytes:
// corrupt or truncated input yields a descriptive error, never a panic.

// Magic is the 8-byte magic prefix of the LIGRAGC1 compressed format.
// graph.DetectFormat sniffs it so misnamed files are routed (or rejected)
// with a descriptive error instead of failing mid-parse.
var Magic = [8]byte{'L', 'I', 'G', 'R', 'A', 'G', 'C', '1'}

const (
	flagWeighted  = 1 << 0
	flagSymmetric = 1 << 1

	headerSize = 48
)

// pad8 returns the number of zero bytes needed to advance k to the next
// 8-byte boundary.
func pad8(k int64) int64 { return (8 - k%8) % 8 }

var zeroPad [8]byte

// WriteCompressed writes c in the LIGRAGC1 format.
func WriteCompressed(w io.Writer, c *CompressedGraph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(Magic[:]); err != nil {
		return err
	}
	var flags uint32
	if c.weighted {
		flags |= flagWeighted
	}
	if c.symmetric {
		flags |= flagSymmetric
	}
	for _, v := range []any{flags, uint32(0), uint64(c.n), uint64(c.m),
		uint64(len(c.outData)), uint64(len(c.inData))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	writeSide := func(offsets []int64, degs []int32, data []byte) error {
		if err := binary.Write(bw, binary.LittleEndian, offsets); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, degs); err != nil {
			return err
		}
		if _, err := bw.Write(zeroPad[:pad8(int64(len(degs))*4)]); err != nil {
			return err
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
		_, err := bw.Write(zeroPad[:pad8(int64(len(data)))])
		return err
	}
	if err := writeSide(c.outOffsets, c.outDeg, c.outData); err != nil {
		return err
	}
	if !c.symmetric {
		if err := writeSide(c.inOffsets, c.inDeg, c.inData); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// header is the decoded fixed-size LIGRAGC1 header.
type header struct {
	weighted  bool
	symmetric bool
	n         int
	m         int64
	outBytes  int64
	inBytes   int64
}

// parseHeader decodes and sanity-checks the 48-byte header.
func parseHeader(buf []byte) (header, error) {
	var h header
	if len(buf) < headerSize {
		return h, fmt.Errorf("compress: truncated header (%d bytes)", len(buf))
	}
	var magic [8]byte
	copy(magic[:], buf)
	if magic != Magic {
		return h, fmt.Errorf("compress: bad magic %q", magic[:])
	}
	flags := binary.LittleEndian.Uint32(buf[8:])
	if flags&^uint32(flagWeighted|flagSymmetric) != 0 {
		return h, fmt.Errorf("compress: unknown flag bits %#x", flags&^uint32(flagWeighted|flagSymmetric))
	}
	if rsv := binary.LittleEndian.Uint32(buf[12:]); rsv != 0 {
		return h, fmt.Errorf("compress: nonzero reserved field %#x (newer format version?)", rsv)
	}
	n64 := binary.LittleEndian.Uint64(buf[16:])
	m64 := binary.LittleEndian.Uint64(buf[24:])
	outB := binary.LittleEndian.Uint64(buf[32:])
	inB := binary.LittleEndian.Uint64(buf[40:])
	// The same plausibility caps as the binary CSR reader, plus: a byte
	// code spends at least one byte per edge, so a data section can never
	// usefully exceed ~11 bytes per edge (10-byte max varint + weight).
	if n64 > 1<<31 || m64 > 1<<40 || outB > 22*m64+8 || inB > 22*m64+8 {
		return h, fmt.Errorf("compress: implausible sizes n=%d m=%d out=%dB in=%dB", n64, m64, outB, inB)
	}
	h.weighted = flags&flagWeighted != 0
	h.symmetric = flags&flagSymmetric != 0
	if h.symmetric && inB != 0 {
		return h, fmt.Errorf("compress: symmetric graph with %d-byte in-section", inB)
	}
	h.n, h.m = int(n64), int64(m64)
	h.outBytes, h.inBytes = int64(outB), int64(inB)
	return h, nil
}

// fileSize returns the exact byte length of a LIGRAGC1 file with this
// header, used by the mmap loader to reject truncated or padded files.
func (h header) fileSize() int64 {
	side := func(dataLen int64) int64 {
		k := int64(h.n+1)*8 + int64(h.n)*4
		k += pad8(int64(h.n) * 4)
		k += dataLen + pad8(dataLen)
		return k
	}
	total := int64(headerSize) + side(h.outBytes)
	if !h.symmetric {
		total += side(h.inBytes)
	}
	return total
}

// ReadCompressed parses and validates the LIGRAGC1 format. The returned
// graph's sections live on the heap; use OpenMapped to share them with the
// page cache instead.
func ReadCompressed(r io.Reader) (*CompressedGraph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hbuf [headerSize]byte
	if _, err := io.ReadFull(br, hbuf[:]); err != nil {
		return nil, fmt.Errorf("compress: reading header: %w", graph.NoEOF(err))
	}
	h, err := parseHeader(hbuf[:])
	if err != nil {
		return nil, err
	}
	c := &CompressedGraph{n: h.n, m: h.m, weighted: h.weighted, symmetric: h.symmetric}
	readSide := func(what string, dataLen int64) ([]int64, []int32, []byte, error) {
		offsets, err := graph.ReadChunked[int64](br, h.n+1)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compress: reading %s offsets: %w", what, err)
		}
		degs, err := graph.ReadChunked[int32](br, h.n)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compress: reading %s degrees: %w", what, err)
		}
		if err := skip(br, pad8(int64(h.n)*4)); err != nil {
			return nil, nil, nil, fmt.Errorf("compress: reading %s degree padding: %w", what, err)
		}
		data, err := graph.ReadChunked[byte](br, int(dataLen))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compress: reading %s data: %w", what, err)
		}
		if err := skip(br, pad8(dataLen)); err != nil {
			return nil, nil, nil, fmt.Errorf("compress: reading %s data padding: %w", what, err)
		}
		return offsets, degs, data, nil
	}
	if c.outOffsets, c.outDeg, c.outData, err = readSide("out", h.outBytes); err != nil {
		return nil, err
	}
	if !h.symmetric {
		if c.inOffsets, c.inDeg, c.inData, err = readSide("in", h.inBytes); err != nil {
			return nil, err
		}
	}
	if err := validateCompressed(c); err != nil {
		return nil, err
	}
	return c, nil
}

// skip consumes exactly k padding bytes.
func skip(r io.Reader, k int64) error {
	if k == 0 {
		return nil
	}
	var buf [8]byte
	_, err := io.ReadFull(r, buf[:k])
	return graph.NoEOF(err)
}

// validateCompressed fully checks a deserialized graph so the trusting
// fast-path decoder can never panic or index out of range on it: section
// shapes, offset monotonicity and endpoints, degree sums, and a parallel
// decode pass over every row (exact byte consumption, targets in range and
// nondecreasing, weights within int32).
func validateCompressed(c *CompressedGraph) error {
	if err := validateSide(c.n, c.m, c.weighted, c.outOffsets, c.outDeg, c.outData, "out"); err != nil {
		return err
	}
	if c.symmetric {
		return nil
	}
	return validateSide(c.n, c.m, c.weighted, c.inOffsets, c.inDeg, c.inData, "in")
}

func validateSide(n int, m int64, weighted bool, offsets []int64, degs []int32, data []byte, what string) error {
	if len(offsets) != n+1 || len(degs) != n {
		return fmt.Errorf("compress: %s sections sized %d/%d offsets/degrees, want %d/%d",
			what, len(offsets), len(degs), n+1, n)
	}
	if n == 0 {
		if m != 0 || len(data) != 0 {
			return fmt.Errorf("compress: empty graph with m=%d, %d data bytes", m, len(data))
		}
		if len(offsets) == 1 && offsets[0] != 0 {
			return fmt.Errorf("compress: %s offsets start at %d, want 0", what, offsets[0])
		}
		return nil
	}
	if offsets[0] != 0 || offsets[n] != int64(len(data)) {
		return fmt.Errorf("compress: %s offsets endpoints [%d, %d], want [0, %d]",
			what, offsets[0], offsets[n], len(data))
	}
	var degSum int64
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return fmt.Errorf("compress: %s offsets decrease at vertex %d", what, v)
		}
		if degs[v] < 0 {
			return fmt.Errorf("compress: negative %s degree %d at vertex %d", what, degs[v], v)
		}
		degSum += int64(degs[v])
	}
	if degSum != m {
		return fmt.Errorf("compress: %s degrees sum to %d, want m=%d", what, degSum, m)
	}
	// Decode every row with the safe (non-panicking) varint reader and
	// check it is exactly consistent with its declared bounds. Parallel:
	// this is the loader's one O(m) pass.
	var failed atomic.Bool
	var once sync.Once
	var decodeErr error
	fail := func(err error) {
		failed.Store(true)
		once.Do(func() { decodeErr = err })
	}
	// The check has no deadline to observe; a contained panic is returned.
	if err := parallel.For(context.Background(), n, func(i int) {
		if failed.Load() {
			return
		}
		v := uint32(i)
		if err := validateRow(v, uint32(n), weighted, degs[i], data[offsets[i]:offsets[i+1]]); err != nil {
			fail(fmt.Errorf("compress: %s row of vertex %d: %w", what, v, err))
		}
	}); err != nil {
		return err
	}
	return decodeErr
}

// validateRow checks one encoded adjacency row: deg entries decode without
// truncation or varint overflow, consume exactly the row's bytes, land in
// [0, n), never decrease, and carry int32-representable weights.
func validateRow(v, n uint32, weighted bool, deg int32, row []byte) error {
	if deg == 0 {
		if len(row) != 0 {
			return fmt.Errorf("%d trailing bytes on a zero-degree row", len(row))
		}
		return nil
	}
	prev := int64(-1)
	for e := int32(0); e < deg; e++ {
		var target int64
		if e == 0 {
			delta, k := binary.Varint(row)
			if k <= 0 {
				return fmt.Errorf("bad first-target varint (k=%d)", k)
			}
			row = row[k:]
			target = int64(v) + delta
		} else {
			gap, k := binary.Uvarint(row)
			if k <= 0 {
				return fmt.Errorf("bad gap varint at edge %d (k=%d)", e, k)
			}
			row = row[k:]
			target = prev + int64(gap)
		}
		if target < 0 || target >= int64(n) {
			return fmt.Errorf("edge %d targets out-of-range vertex %d", e, target)
		}
		if target < prev {
			return fmt.Errorf("targets decrease at edge %d", e)
		}
		prev = target
		if weighted {
			w, k := binary.Varint(row)
			if k <= 0 {
				return fmt.Errorf("bad weight varint at edge %d (k=%d)", e, k)
			}
			if w < -1<<31 || w > 1<<31-1 {
				return fmt.Errorf("weight %d at edge %d overflows int32", w, e)
			}
			row = row[k:]
		}
	}
	if len(row) != 0 {
		return fmt.Errorf("%d trailing bytes after %d edges", len(row), deg)
	}
	return nil
}

// WriteCompressedFile writes c to path in the LIGRAGC1 format.
func WriteCompressedFile(path string, c *CompressedGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCompressed(f, c); err != nil {
		return err
	}
	return f.Close()
}

// ReadCompressedFile reads a LIGRAGC1 file into the heap.
func ReadCompressedFile(path string) (*CompressedGraph, error) {
	if err := faultinject.OnLoad(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadCompressed(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return g, nil
}

// LoadView loads any supported on-disk graph format, sniffing the 8-byte
// magic: LIGRAGC1 files load as compressed graphs (memory-mapped when mmap
// is set and the platform supports it, read into the heap otherwise),
// everything else goes through graph.LoadFile (LIGRAGO1 binary by magic,
// text formats otherwise). Requesting mmap for a non-compressed file is an
// error — only the compressed format is laid out for in-place use.
// symmetric applies to text inputs only, which do not record directedness
// themselves.
func LoadView(path string, symmetric, mmap bool) (graph.View, error) {
	format, err := graph.DetectFormatFile(path)
	if err != nil {
		return nil, err
	}
	if format != graph.FormatCompressed {
		if mmap {
			return nil, fmt.Errorf("compress: mmap requires a compressed (LIGRAGC1) file; %s is %s", path, format)
		}
		return graph.LoadFile(path, symmetric)
	}
	if mmap {
		return OpenMapped(path)
	}
	return ReadCompressedFile(path)
}
