package graph

// The .csrg binary graph format: the Graph's CSR slices, flat on disk, so
// a file can back a Graph by memory mapping with zero translation (Mmap)
// or by one contiguous read (ReadCSRG). Everything is little-endian — the
// byte order of every supported mmap host — and every section starts at an
// 8-byte-aligned file offset, so the mapped bytes can be aliased directly
// as []int64/[]int32.
//
// Layout (all offsets in bytes):
//
//	0   magic   [8]byte  "CSRG\r\n\x1a\n" (PNG-style: detects text-mode mangling)
//	8   version uint32   currently 1
//	12  flags   uint32   must be 0 (reserved)
//	16  n       uint64   number of nodes
//	24  m       uint64   number of undirected edges
//	32  crc(offsets section) uint32   \
//	36  crc(targets section) uint32    } CRC-32 (IEEE) of the raw section bytes
//	40  crc(ids section)     uint32   /
//	44  crc(header bytes 0..44) uint32
//	48  offsets section: (n+1) × int64   row bounds, offsets[0]=0, offsets[n]=2m
//	    targets section: 2m × int32      concatenated sorted neighbour lists
//	    ids section:     n × int64       unique node identifiers
//
// The header is 48 bytes and each section's byte length is a multiple of 8,
// so all three sections are 8-byte aligned with no padding; a future
// version that adds a section with a non-multiple-of-8 length must pad to
// the next 8-byte boundary. The file ends after the ids section — trailing
// bytes are rejected.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

const (
	csrgMagic      = "CSRG\r\n\x1a\n"
	csrgVersion    = 1
	csrgHeaderSize = 48
)

// ErrBadCSRG is wrapped by every decode error: corrupt headers, checksum
// mismatches, and structural violations (unsorted rows, asymmetric
// adjacency, out-of-range targets). errors.Is(err, ErrBadCSRG) is the
// loader's "this file is not a valid .csrg" test.
var ErrBadCSRG = errors.New("graph: invalid .csrg")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadCSRG, fmt.Sprintf(format, args...))
}

// csrgSize returns the exact file size for a graph with n nodes and m
// edges, or an error if the sizes overflow the format's bounds.
func csrgSize(n, m uint64) (int64, error) {
	// Targets are int32 node indices, so n must fit in int32; the total
	// size must fit in int64 for mmap length and file size arithmetic.
	if n > math.MaxInt32 {
		return 0, badf("n=%d exceeds int32 node indices", n)
	}
	if m > math.MaxInt64/16 {
		return 0, badf("m=%d overflows", m)
	}
	return int64(csrgHeaderSize) + int64(n+1)*8 + int64(m)*8 + int64(n)*8, nil
}

// WriteCSRG writes g in the .csrg binary format. The sections are streamed
// through a fixed-size scratch buffer (two passes over the CSR slices: one
// to checksum, one to write), so the writer allocates O(1) regardless of
// graph size.
func (g *Graph) WriteCSRG(w io.Writer) error {
	var hdr [csrgHeaderSize]byte
	copy(hdr[0:8], csrgMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], csrgVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], 0)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.N()))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(g.M()))

	// Pass 1: per-section checksums.
	for i, section := range []func(io.Writer) error{g.writeOffsets, g.writeTargets, g.writeIDs} {
		h := crc32.NewIEEE()
		if err := section(h); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(hdr[32+4*i:36+4*i], h.Sum32())
	}
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.ChecksumIEEE(hdr[:44]))

	// Pass 2: header then section bytes.
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, section := range []func(io.Writer) error{g.writeOffsets, g.writeTargets, g.writeIDs} {
		if err := section(w); err != nil {
			return err
		}
	}
	return nil
}

// scratchSize is the encode buffer for the streaming section writers: a
// multiple of 8 so int64 values never straddle a flush.
const scratchSize = 64 << 10

func (g *Graph) writeOffsets(w io.Writer) error {
	// The zero-value Graph has a nil offsets slice but the format always
	// carries n+1 entries; emit the implicit single zero.
	if len(g.offsets) == 0 {
		var zero [8]byte
		_, err := w.Write(zero[:])
		return err
	}
	return writeInt64s(w, g.offsets)
}

func (g *Graph) writeTargets(w io.Writer) error {
	var buf [scratchSize]byte
	fill := 0
	for _, t := range g.targets {
		binary.LittleEndian.PutUint32(buf[fill:], uint32(t))
		fill += 4
		if fill == len(buf) {
			if _, err := w.Write(buf[:fill]); err != nil {
				return err
			}
			fill = 0
		}
	}
	_, err := w.Write(buf[:fill])
	return err
}

func (g *Graph) writeIDs(w io.Writer) error { return writeInt64s(w, g.ids) }

func writeInt64s(w io.Writer, xs []int64) error {
	var buf [scratchSize]byte
	fill := 0
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[fill:], uint64(x))
		fill += 8
		if fill == len(buf) {
			if _, err := w.Write(buf[:fill]); err != nil {
				return err
			}
			fill = 0
		}
	}
	_, err := w.Write(buf[:fill])
	return err
}

// WriteCSRGFile writes g to path in the .csrg format, fsync-free but
// checking Close, so a reported success means the bytes reached the file.
func (g *Graph) WriteCSRGFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteCSRG(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeCSRG parses and fully validates a .csrg image. With alias=true the
// returned Graph's slices alias buf directly (zero-copy; buf must outlive
// the Graph and must not be modified); otherwise the sections are copied
// into fresh heap slices. The alias path requires a little-endian host and
// falls back to copying elsewhere.
//
// Validation is complete before the Graph is returned: header checksums,
// section checksums, exact file size, row monotonicity, per-row strict
// sortedness, target range, no self loops, adjacency symmetry, and
// pairwise-distinct ids, in O(n + m) time plus an O(n log n) sort of the
// ids (see validateCSR). A non-nil error means no Graph aliases any part
// of buf.
func decodeCSRG(buf []byte, alias bool) (*Graph, error) {
	if len(buf) < csrgHeaderSize {
		return nil, badf("truncated header: %d bytes", len(buf))
	}
	if string(buf[0:8]) != csrgMagic {
		return nil, badf("bad magic %q", buf[0:8])
	}
	if got := crc32.ChecksumIEEE(buf[:44]); got != binary.LittleEndian.Uint32(buf[44:48]) {
		return nil, badf("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != csrgVersion {
		return nil, badf("unsupported version %d", v)
	}
	if flags := binary.LittleEndian.Uint32(buf[12:16]); flags != 0 {
		return nil, badf("unsupported flags %#x", flags)
	}
	n := binary.LittleEndian.Uint64(buf[16:24])
	m := binary.LittleEndian.Uint64(buf[24:32])
	want, err := csrgSize(n, m)
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) != want {
		return nil, badf("size %d, want %d for n=%d m=%d", len(buf), want, n, m)
	}
	offBytes := buf[csrgHeaderSize : csrgHeaderSize+int64(n+1)*8]
	tgtBytes := buf[csrgHeaderSize+int64(n+1)*8 : csrgHeaderSize+int64(n+1)*8+int64(m)*8]
	idBytes := buf[want-int64(n)*8 : want]
	for i, section := range [][]byte{offBytes, tgtBytes, idBytes} {
		if got := crc32.ChecksumIEEE(section); got != binary.LittleEndian.Uint32(buf[32+4*i:36+4*i]) {
			return nil, badf("section %d checksum mismatch", i)
		}
	}

	g := &Graph{}
	if alias && hostLittleEndian && aligned8(buf) {
		g.offsets = aliasInt64s(offBytes)
		g.targets = aliasInt32s(tgtBytes)
		g.ids = aliasInt64s(idBytes)
	} else {
		g.offsets = make([]int64, n+1)
		for i := range g.offsets {
			g.offsets[i] = int64(binary.LittleEndian.Uint64(offBytes[8*i:]))
		}
		g.targets = make([]int32, 2*m)
		for i := range g.targets {
			g.targets[i] = int32(binary.LittleEndian.Uint32(tgtBytes[4*i:]))
		}
		g.ids = make([]int64, n)
		for i := range g.ids {
			g.ids[i] = int64(binary.LittleEndian.Uint64(idBytes[8*i:]))
		}
	}
	if err := validateCSR(g, int64(2*m)); err != nil {
		return nil, err
	}
	return g, nil
}

// validateCSR checks the structural invariants every Graph method assumes,
// so a decoded graph is indistinguishable from a Builder-produced one:
// monotone row bounds ending at 2m, strictly sorted in-range rows with no
// self loops, symmetric adjacency, and pairwise-distinct ids. Cost is
// O(n + m) time for the structure plus the O(n log n) id sort, and one
// n-sized transient slice (the symmetry cursors, then the sorted ids).
func validateCSR(g *Graph, wantEnd int64) error {
	n := int64(g.N())
	if g.offsets[0] != 0 {
		return badf("offsets[0]=%d, want 0", g.offsets[0])
	}
	if g.offsets[n] != wantEnd {
		return badf("offsets[n]=%d, want 2m=%d", g.offsets[n], wantEnd)
	}
	// All row bounds are vetted before the first row is sliced: a single
	// out-of-range offset would otherwise panic the slice expression below
	// instead of returning an error.
	for v := int64(0); v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] || g.offsets[v+1] > wantEnd {
			return badf("offsets not monotone at node %d", v)
		}
	}
	for v := int64(0); v < n; v++ {
		row := g.targets[g.offsets[v]:g.offsets[v+1]]
		for i, w := range row {
			if int64(w) < 0 || int64(w) >= n {
				return badf("node %d: target %d out of range", v, w)
			}
			if int64(w) == v {
				return badf("node %d: self loop", v)
			}
			if i > 0 && row[i-1] >= w {
				return badf("node %d: row not strictly sorted at %d", v, i)
			}
		}
	}
	// Symmetry by one cursor walk: rows are visited in ascending v, so the
	// entries pointing at w arrive in ascending order, and each must be the
	// next unmatched entry of w's sorted row. An entry x < v under w's
	// cursor was skipped by row x, so x→w is the missing reverse. No check
	// is needed after the walk: each of the 2m entries advanced exactly one
	// cursor and no cursor ran past its row end, so every row was consumed.
	cur := make([]int64, n)
	copy(cur, g.offsets[:n])
	for v := int64(0); v < n; v++ {
		for _, w := range g.targets[g.offsets[v]:g.offsets[v+1]] {
			c := cur[w]
			x := n // w's row is used up: it has no entry for v
			if c < g.offsets[w+1] {
				x = int64(g.targets[c])
			}
			switch {
			case x == v:
				cur[w] = c + 1
			case x < v:
				return badf("asymmetric edge: %d→%d present, %d→%d missing", w, x, x, w)
			default:
				return badf("asymmetric edge: %d→%d present, %d→%d missing", v, w, w, v)
			}
		}
	}
	sorted := cur // the cursors are spent; reuse them for the id sort
	copy(sorted, g.ids)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return badf("duplicate id %d", sorted[i])
		}
	}
	return nil
}

// ReadCSRG parses a .csrg stream into a heap-backed Graph with the same
// validation as Mmap. Decode errors wrap ErrBadCSRG; the function never
// panics on corrupt input (FuzzCSRGDecode pins this).
func ReadCSRG(r io.Reader) (*Graph, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Alias the heap buffer we just read — it is ours, so zero-copy is
	// safe here too (decodeCSRG falls back to copying on big-endian hosts).
	return decodeCSRG(buf, true)
}

// LoadFault, when non-nil, is consulted by Load and Mmap with the path
// before any file is opened; a non-nil return fails the load with that
// error. It exists so fault-injection tests (internal/chaos.FailGraphLoads)
// can exercise loader failure paths deterministically — production code
// leaves it nil. Install or clear it only while no loads are in flight.
var LoadFault func(path string) error

// Load reads a graph from path, dispatching on the extension: ".csrg"
// files are memory-mapped zero-copy (heap-read fallback where mmap is
// unavailable), everything else is parsed as the text edge-list format
// (ReadFrom). The returned closer releases the mapping and must be held
// open for the Graph's lifetime; for text graphs it is a no-op.
func Load(path string) (*Graph, io.Closer, error) {
	if lf := LoadFault; lf != nil {
		if err := lf(path); err != nil {
			return nil, nil, err
		}
	}
	if strings.HasSuffix(path, ".csrg") {
		mg, err := Mmap(path)
		if err != nil {
			return nil, nil, err
		}
		return mg.Graph, mg, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, err := ReadFrom(f)
	if err != nil {
		return nil, nil, err
	}
	return g, nopCloser{}, nil
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// Mapped is a Graph backed by a memory-mapped .csrg file. The embedded
// Graph aliases the mapping directly (on little-endian mmap-capable hosts;
// elsewhere it is a validated heap copy, behind the same API): topology
// costs file-backed pages, not Go heap, and the kernel can share and evict
// them. Close unmaps; the Graph must not be used afterwards.
type Mapped struct {
	*Graph
	unmap func() error
}

// Close releases the mapping. Safe to call twice.
func (m *Mapped) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	return u()
}

// Mmap opens the .csrg file at path and returns a Graph aliasing the
// mapped bytes. The file is validated completely before the Graph is
// returned (see decodeCSRG); the mapping is read-only, so even a buggy
// caller cannot corrupt the file through the returned slices. The size is
// stat-pinned at open and re-checked after validation, so a file truncated
// while Mmap runs is rejected instead of handing back a Graph over a torn
// view.
//
// SIGBUS hazard: the pages stay file-backed for the Graph's lifetime. If
// another process truncates or rewrites the file after Mmap returns, reads
// through the Graph's slices touch vanished pages and the kernel delivers
// SIGBUS — a process-fatal signal no Go recover can catch. Only map files
// you control for the duration of the run; use ReadCSRG (a heap copy) when
// the file's lifetime cannot be guaranteed.
func Mmap(path string) (*Mapped, error) {
	if lf := LoadFault; lf != nil {
		if err := lf(path); err != nil {
			return nil, err
		}
	}
	return mmapFile(path)
}
