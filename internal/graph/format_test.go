package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the .csrg golden fixtures under testdata/ (only after a deliberate format change)")

func crc32IEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// graphsEqual reports whether two graphs are identical: same node count,
// ids, and neighbour rows.
func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if a.ID(v) != b.ID(v) {
			return false
		}
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// formatCorpus is the graph set every representation test runs over:
// degenerate shapes (empty, single, no-edge), structured and random
// families.
func formatCorpus() []struct {
	name string
	g    *Graph
} {
	return []struct {
		name string
		g    *Graph
	}{
		{"empty", NewBuilder(0).Graph()},
		{"single", Path(1)},
		{"edgeless5", NewBuilder(5).Graph()},
		{"path7", Path(7)},
		{"cycle9", Cycle(9)},
		{"star6", Star(6)},
		{"grid4x5", Grid(4, 5)},
		{"complete6", Complete(6)},
		{"gnp40", GNPConnected(40, 0.1, 3)},
		{"ba64", BarabasiAlbert(64, 3, 5)},
		{"uforest50", UnionForests(50, 3, 7)},
		{"disconnected", GNP(30, 0.05, 11)},
	}
}

func TestCSRGRoundTrip(t *testing.T) {
	for _, tc := range formatCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.g.WriteCSRG(&buf); err != nil {
				t.Fatalf("WriteCSRG: %v", err)
			}
			got, err := ReadCSRG(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadCSRG: %v", err)
			}
			if !graphsEqual(tc.g, got) {
				t.Errorf("round trip changed the graph: %v -> %v", tc.g, got)
			}
		})
	}
}

func TestCSRGMmapRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range formatCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".csrg")
			if err := tc.g.WriteCSRGFile(path); err != nil {
				t.Fatalf("WriteCSRGFile: %v", err)
			}
			mg, err := Mmap(path)
			if err != nil {
				t.Fatalf("Mmap: %v", err)
			}
			defer mg.Close()
			if !graphsEqual(tc.g, mg.Graph) {
				t.Errorf("mmap changed the graph: %v -> %v", tc.g, mg.Graph)
			}
			// The mapped graph must behave like a built one on read paths
			// that slice rows and run searches.
			if mg.MaxDegree() != tc.g.MaxDegree() {
				t.Errorf("MaxDegree: %d != %d", mg.MaxDegree(), tc.g.MaxDegree())
			}
			if tc.g.N() > 0 {
				da, _ := tc.g.BFS(0)
				db, _ := mg.BFS(0)
				for v := range da {
					if da[v] != db[v] {
						t.Fatalf("BFS dist diverges at %d", v)
					}
				}
			}
			if err := mg.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := mg.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

// TestCSRGMatchesTextFormat pins representation equivalence: the same
// graph routed through the binary write→map path and through the text
// Write→ReadFrom path must be identical.
func TestCSRGMatchesTextFormat(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range formatCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			var text bytes.Buffer
			if err := tc.g.Write(&text); err != nil {
				t.Fatalf("Write: %v", err)
			}
			fromText, err := ReadFrom(&text)
			if err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			path := filepath.Join(dir, tc.name+".csrg")
			if err := tc.g.WriteCSRGFile(path); err != nil {
				t.Fatal(err)
			}
			mg, err := Mmap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mg.Close()
			if !graphsEqual(fromText, mg.Graph) {
				t.Errorf("text and binary representations diverge for %s", tc.name)
			}
		})
	}
}

// TestCSRGGoldenFiles pins the writer's output byte-for-byte against
// committed fixtures, so the format cannot drift silently across PRs. To
// regenerate after a deliberate format change (bump csrgVersion!):
//
//	go test ./internal/graph -run TestCSRGGoldenFiles -update-golden
func TestCSRGGoldenFiles(t *testing.T) {
	for _, tc := range []struct {
		file string
		g    *Graph
	}{
		{"path5.csrg", Path(5)},
		{"gnp16.csrg", GNPConnected(16, 0.5, 1)},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			var buf bytes.Buffer
			if err := tc.g.WriteCSRG(&buf); err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("writer output diverges from golden %s (%d vs %d bytes): the on-disk format changed", tc.file, buf.Len(), len(want))
			}
			// The fixture must also load back into the generator's graph.
			mg, err := Mmap(path)
			if err != nil {
				t.Fatalf("Mmap golden: %v", err)
			}
			defer mg.Close()
			if !graphsEqual(tc.g, mg.Graph) {
				t.Errorf("golden %s does not decode to its generator graph", tc.file)
			}
		})
	}
}

// corruptCSRG returns a valid encoding of a small graph with mutate
// applied, for decoder error-path tests.
func corruptCSRG(t *testing.T, mutate func([]byte) []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := GNPConnected(12, 0.4, 2).WriteCSRG(&buf); err != nil {
		t.Fatal(err)
	}
	return mutate(buf.Bytes())
}

func TestCSRGDecodeErrors(t *testing.T) {
	reCRC := func(b []byte) []byte {
		// Refresh section + header CRCs so structural mutations are
		// exercised instead of being caught by the checksum layer.
		n := binary.LittleEndian.Uint64(b[16:24])
		offEnd := csrgHeaderSize + (int(n)+1)*8
		m := binary.LittleEndian.Uint64(b[24:32])
		tgtEnd := offEnd + int(m)*8
		for i, section := range [][]byte{b[csrgHeaderSize:offEnd], b[offEnd:tgtEnd], b[tgtEnd:]} {
			binary.LittleEndian.PutUint32(b[32+4*i:], crc32IEEE(section))
		}
		binary.LittleEndian.PutUint32(b[44:48], crc32IEEE(b[:44]))
		return b
	}
	// raw encodes a hand-built CSR instead of mutating the corpus graph. The
	// writer does not validate, so the bytes carry good checksums and reach
	// the decoder's structural checks.
	raw := func(offsets []int64, targets []int32, ids []int64) func([]byte) []byte {
		return func([]byte) []byte {
			var buf bytes.Buffer
			if err := (&Graph{offsets: offsets, targets: targets, ids: ids}).WriteCSRG(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string // substring of the error, when the case pins one
	}{
		{"empty", func(b []byte) []byte { return nil }, ""},
		{"truncated-header", func(b []byte) []byte { return b[:20] }, ""},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return reCRC(b) }, ""},
		{"bad-version", func(b []byte) []byte { b[8] = 99; return reCRC(b) }, ""},
		{"nonzero-flags", func(b []byte) []byte { b[12] = 1; return reCRC(b) }, ""},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-8] }, ""},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) }, ""},
		{"section-crc-flip", func(b []byte) []byte { b[csrgHeaderSize] ^= 0xff; return b }, ""},
		{"header-crc-flip", func(b []byte) []byte { b[17] ^= 0xff; return b }, ""},
		{"offsets-not-zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[csrgHeaderSize:], 1)
			return reCRC(b)
		}, ""},
		{"offsets-huge", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[csrgHeaderSize+8:], 1<<40)
			return reCRC(b)
		}, ""},
		{"self-loop", func(b []byte) []byte {
			n := binary.LittleEndian.Uint64(b[16:24])
			tgt := csrgHeaderSize + (int(n)+1)*8
			// First row belongs to node 0; make its first target 0.
			binary.LittleEndian.PutUint32(b[tgt:], 0)
			return reCRC(b)
		}, ""},
		{"target-out-of-range", func(b []byte) []byte {
			n := binary.LittleEndian.Uint64(b[16:24])
			tgt := csrgHeaderSize + (int(n)+1)*8
			binary.LittleEndian.PutUint32(b[tgt:], uint32(n))
			return reCRC(b)
		}, ""},
		// The path 0-1-2-3 with row 0's entry 1 replaced by 3: the reverse
		// of 0→3 is missing where the symmetry walk first looks.
		{"asymmetric-mid-walk", raw([]int64{0, 1, 3, 5, 6}, []int32{3, 0, 2, 1, 3, 2}, []int64{0, 1, 2, 3}),
			"asymmetric edge"},
		// The path 0-1-2 plus extra entries 1→3 and 2→3 at the ends of their
		// rows; row 3 is empty.
		{"asymmetric-row-tail", raw([]int64{0, 1, 4, 6, 6}, []int32{1, 0, 2, 3, 1, 3}, []int64{0, 1, 2, 3}),
			"asymmetric edge"},
		// The path 0-1-2 plus 1→3 and 3→0: row 3's entry 0 is never
		// matched, because row 0 has no entry for 3.
		{"asymmetric-unmatched-entry", raw([]int64{0, 1, 4, 5, 6}, []int32{1, 0, 2, 3, 1, 0}, []int64{0, 1, 2, 3}),
			"asymmetric edge"},
		{"unsorted-row", raw([]int64{0, 2, 3, 4}, []int32{2, 1, 0, 0}, []int64{0, 1, 2}),
			"not strictly sorted"},
		{"offsets-not-monotone", raw([]int64{0, 2, 1, 4}, []int32{1, 2, 0, 0}, []int64{0, 1, 2}),
			"not monotone"},
		{"duplicate-id", raw([]int64{0, 1, 2}, []int32{1, 0}, []int64{5, 5}),
			"duplicate id 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := corruptCSRG(t, tc.mutate)
			g, err := ReadCSRG(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("decoder accepted corrupt input (%v)", g)
			}
			if !errors.Is(err, ErrBadCSRG) {
				t.Errorf("error %v does not wrap ErrBadCSRG", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestCSRGAsymmetryNamesMissingReverse drops two directed entries from a
// valid graph and checks that the decode error names an edge a→b whose row
// a holds b while row b lacks a, whichever edge the walk meets first.
func TestCSRGAsymmetryNamesMissingReverse(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := GNPConnected(30, 0.2, seed)
		// Drop the i-th and j-th directed entries, chosen per seed; skip
		// pairs that are the two directions of one edge (that stays valid).
		i := int(seed*7919) % len(g.targets)
		j := (i + 1 + int(seed*104729)%(len(g.targets)-1)) % len(g.targets)
		row := func(e int) int {
			v := 0
			for g.offsets[v+1] <= int64(e) {
				v++
			}
			return v
		}
		if row(i) == int(g.targets[j]) && row(j) == int(g.targets[i]) {
			continue
		}
		offsets := append([]int64(nil), g.offsets...)
		var targets []int32
		for e, w := range g.targets {
			if e == i || e == j {
				for v := row(e) + 1; v < len(offsets); v++ {
					offsets[v]--
				}
				continue
			}
			targets = append(targets, w)
		}
		h := &Graph{offsets: offsets, targets: targets, ids: g.ids}
		var buf bytes.Buffer
		if err := h.WriteCSRG(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadCSRG(&buf)
		if err == nil {
			t.Fatalf("seed %d: decoder accepted an asymmetric graph", seed)
		}
		var a, b int
		if _, serr := fmt.Sscanf(strings.TrimPrefix(err.Error(), ErrBadCSRG.Error()+": "),
			"asymmetric edge: %d→%d present", &a, &b); serr != nil {
			t.Fatalf("seed %d: error %q does not name an asymmetric edge: %v", seed, err, serr)
		}
		if !slices.Contains(h.Neighbors(a), int32(b)) || slices.Contains(h.Neighbors(b), int32(a)) {
			t.Errorf("seed %d: error %q names %d→%d, which is not a missing reverse", seed, err, a, b)
		}
	}
}

func TestMmapErrors(t *testing.T) {
	if _, err := Mmap(filepath.Join(t.TempDir(), "missing.csrg")); err == nil {
		t.Error("Mmap of a missing file succeeded")
	}
	short := filepath.Join(t.TempDir(), "short.csrg")
	if err := os.WriteFile(short, []byte("CSRG"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Mmap(short); !errors.Is(err, ErrBadCSRG) {
		t.Errorf("Mmap of a truncated file: err=%v, want ErrBadCSRG", err)
	}
}

func TestLoadDispatchesOnExtension(t *testing.T) {
	g := GNPConnected(25, 0.2, 4)
	dir := t.TempDir()

	bin := filepath.Join(dir, "g.csrg")
	if err := g.WriteCSRGFile(bin); err != nil {
		t.Fatal(err)
	}
	text := filepath.Join(dir, "g.txt")
	f, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{bin, text} {
		got, closer, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if !graphsEqual(g, got) {
			t.Errorf("Load(%s) changed the graph", path)
		}
		if err := closer.Close(); err != nil {
			t.Errorf("Close(%s): %v", path, err)
		}
	}
}

// BenchmarkCSRGLoad times Mmap of a .csrg file, full validation included,
// on a 2·10⁵-node union of forests, and reports ns per edge.
func BenchmarkCSRGLoad(b *testing.B) {
	g := UnionForests(200_000, DefaultArbAlpha, 7)
	path := filepath.Join(b.TempDir(), "uforest.csrg")
	if err := g.WriteCSRGFile(path); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		mg, err := Mmap(path)
		if err != nil {
			b.Fatal(err)
		}
		mg.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.M()), "ns/edge")
}
