package congest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"congestds/internal/graph"
)

// testCkpts builds a spectrum of valid checkpoints for round-trip and fuzz
// seeding: minimal, with live state, with pending payloads, with host blob.
func testCkpts() []*Ckpt {
	return []*Ckpt{
		{N: 1, M: 0, FP: 0xdeadbeef, Round: 1, ChunkSize: 1},
		{
			N: 6, M: 6, FP: 42, Round: 3, ChunkSize: 2,
			Messages: 36, Bits: 288, MaxMsgBits: 16,
			Live:   []int32{0, 2, 5},
			States: [][]byte{{1, 2}, nil, {0xff}},
		},
		{
			N: 4, M: 4, FP: 7, Round: 2, ChunkSize: 4,
			Messages: 8, Bits: 64, MaxMsgBits: 8,
			Live:     []int32{0, 1, 2, 3},
			States:   [][]byte{{9}, {8}, {7}, {6}},
			Slots:    []int32{0, 3, 7},
			Payloads: [][]byte{{0xaa, 0xbb}, nil, {0x01}},
		},
		{
			N: 2, M: 1, FP: 1, Round: 9, ChunkSize: 1,
			Live: []int32{1}, States: [][]byte{{5, 5, 5}},
			HasHost: true, Host: []byte("host blob"),
		},
	}
}

// TestCkptRoundTrip: decode∘encode is the identity on every valid
// checkpoint.
func TestCkptRoundTrip(t *testing.T) {
	for i, c := range testCkpts() {
		enc := c.Encode()
		dec, err := DecodeCkpt(enc)
		if err != nil {
			t.Fatalf("ckpt %d: decode: %v", i, err)
		}
		if re := dec.Encode(); !bytes.Equal(re, enc) {
			t.Fatalf("ckpt %d: re-encode differs (%d vs %d bytes)", i, len(re), len(enc))
		}
		if dec.Round != c.Round || dec.N != c.N || dec.FP != c.FP || len(dec.Live) != len(c.Live) {
			t.Fatalf("ckpt %d: fields lost in round trip: %+v vs %+v", i, dec, c)
		}
	}
}

// TestDecodeCkptRejects drives the corruption classes through DecodeCkpt:
// every rejection must wrap ErrBadCkpt.
func TestDecodeCkptRejects(t *testing.T) {
	valid := testCkpts()[2].Encode()
	mutate := func(off int, b byte) []byte {
		c := append([]byte(nil), valid...)
		c[off] ^= b
		return c
	}
	cases := map[string][]byte{
		"empty":            nil,
		"short":            valid[:10],
		"header-only":      valid[:ckptHeaderSize],
		"bad-magic":        mutate(0, 0xff),
		"bad-version":      mutate(8, 0x02),
		"bad-flags":        mutate(12, 0x01),
		"bad-header-crc":   mutate(20, 0x01),
		"bad-body-crc":     mutate(16, 0x01),
		"corrupt-body":     mutate(ckptHeaderSize+3, 0x55),
		"truncated-body":   valid[:len(valid)-4],
		"trailing-garbage": append(append([]byte(nil), valid...), 0x00),
	}
	for name, data := range cases {
		if _, err := DecodeCkpt(data); !errors.Is(err, ErrBadCkpt) {
			t.Errorf("%s: err=%v, want ErrBadCkpt", name, err)
		}
	}
	// Version/flags mutations also invalidate the header CRC; rebuild valid
	// headers around them to hit the dedicated checks.
	for name, fix := range map[string]func(c *Ckpt) []byte{
		"round-zero":   func(c *Ckpt) []byte { c.Round = 0; return c.Encode() },
		"chunk-zero":   func(c *Ckpt) []byte { c.ChunkSize = 0; return c.Encode() },
		"chunk-over-n": func(c *Ckpt) []byte { c.ChunkSize = int(c.N) + 1; return c.Encode() },
		"live-over-n": func(c *Ckpt) []byte {
			c.Live = append(c.Live, int32(c.N))
			c.States = append(c.States, nil)
			return c.Encode()
		},
		"slot-over-2m": func(c *Ckpt) []byte {
			c.Slots = append(c.Slots, int32(2*c.M))
			c.Payloads = append(c.Payloads, nil)
			return c.Encode()
		},
		"live-unordered": func(c *Ckpt) []byte { c.Live = []int32{2, 2}; c.States = [][]byte{nil, nil}; return c.Encode() },
	} {
		c := testCkpts()[2]
		if _, err := DecodeCkpt(fix(c)); !errors.Is(err, ErrBadCkpt) {
			t.Errorf("%s: err=%v, want ErrBadCkpt", name, err)
		}
	}
}

// TestDecodeCkptNonCanonical: an overlong varint spelling of a valid body
// must be rejected even though it parses to the same values.
func TestDecodeCkptNonCanonical(t *testing.T) {
	c := testCkpts()[0]
	body := c.appendBody(nil)
	// Respell the leading uvarint (n=1, one byte 0x01) as the overlong
	// two-byte 0x81 0x00 and rebuild valid CRCs around it.
	long := append([]byte{0x81, 0x00}, body[1:]...)
	enc := c.Encode()
	out := append([]byte(nil), enc[:ckptHeaderSize]...)
	out = append(out, long...)
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(out[ckptHeaderSize:]))
	binary.LittleEndian.PutUint32(out[20:], crc32.ChecksumIEEE(out[:20]))
	_, err := DecodeCkpt(out)
	if !errors.Is(err, ErrBadCkpt) {
		t.Fatalf("overlong varint accepted: err=%v, want ErrBadCkpt", err)
	}
	if !strings.Contains(err.Error(), "non-canonical") {
		t.Fatalf("rejection is not the canonicality check: %v", err)
	}
}

// TestRunSteppedCkptValidation pins the argument contract: every misuse is
// rejected before the run starts, wraps ErrConfig, and classifies as
// "config" — callers can tell "fix your configuration" from "the run
// failed" without string matching.
func TestRunSteppedCkptValidation(t *testing.T) {
	g := graph.Cycle(8)
	f := func(nd *Node) StepProgram { return &ckptProbeStep{} }
	path := filepath.Join(t.TempDir(), "x.ckpt")
	cases := []struct {
		name string
		cfg  Config
		spec CkptSpec
	}{
		{"non-stepped engine", Config{Engine: EngineGoroutine}, CkptSpec{Path: path, Every: 1}},
		{"empty path", Config{Engine: EngineStepped}, CkptSpec{Every: 1}},
		{"Every=0", Config{Engine: EngineStepped}, CkptSpec{Path: path}},
	}
	for _, c := range cases {
		_, err := NewNetwork(g, c.cfg).RunSteppedCkpt(f, c.spec)
		if err == nil {
			t.Errorf("%s accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err=%v, want ErrConfig", c.name, err)
		}
		if got := SentinelClass(err); got != "config" {
			t.Errorf("%s: class %q, want config", c.name, got)
		}
	}
}

// ckptProbeStep implements CkptStep trivially: no state, one silent round.
type ckptProbeStep struct{}

func (s *ckptProbeStep) Init(nd *Node) bool                           { return false }
func (s *ckptProbeStep) Step(nd *Node, round int, in []Incoming) bool { return true }
func (s *ckptProbeStep) AppendState(buf []byte) []byte                { return buf }
func (s *ckptProbeStep) RestoreState(data []byte) error {
	if len(data) != 0 {
		return errors.New("unexpected state")
	}
	return nil
}

// plainStep does NOT implement CkptStep; checkpointed runs must refuse it.
type plainStep struct{}

func (s *plainStep) Init(nd *Node) bool                           { return false }
func (s *plainStep) Step(nd *Node, round int, in []Incoming) bool { return true }

// TestRunSteppedCkptRequiresCkptStep: a factory producing plain
// StepPrograms fails loudly at the first checkpoint.
func TestRunSteppedCkptRequiresCkptStep(t *testing.T) {
	g := graph.Cycle(8)
	path := filepath.Join(t.TempDir(), "x.ckpt")
	f := func(nd *Node) StepProgram { return &plainStep{} }
	_, err := NewNetwork(g, Config{Engine: EngineStepped}).RunSteppedCkpt(f, CkptSpec{Path: path, Every: 1})
	if err == nil || !strings.Contains(err.Error(), "CkptStep") {
		t.Fatalf("err=%v, want a CkptStep requirement error", err)
	}
}

// hostBlob is a minimal HostState for the mismatch tests.
type hostBlob struct{ b []byte }

func (h *hostBlob) AppendHost(buf []byte) []byte { return append(buf, h.b...) }
func (h *hostBlob) RestoreHost(data []byte) error {
	h.b = append(h.b[:0], data...)
	return nil
}

// chattyStep keeps the run alive long enough to cross checkpoint
// boundaries: broadcast for `rounds` rounds, then stop.
type chattyStep struct{ rounds int }

func (s *chattyStep) Init(nd *Node) bool { nd.Broadcast([]byte{1}); return false }
func (s *chattyStep) Step(nd *Node, round int, in []Incoming) bool {
	if round+1 >= s.rounds {
		return true
	}
	nd.Broadcast([]byte{byte(round + 2)})
	return false
}
func (s *chattyStep) AppendState(buf []byte) []byte { return AppendVarint(buf, int64(s.rounds)) }
func (s *chattyStep) RestoreState(data []byte) error {
	x, off := Varint(data, 0)
	if off != len(data) {
		return errors.New("bad state")
	}
	s.rounds = int(x)
	return nil
}

// TestCkptHostMismatch: a checkpoint written with host state cannot resume
// without a receiver, and vice versa — both directions are ErrBadCkpt.
func TestCkptHostMismatch(t *testing.T) {
	g := graph.Cycle(8)
	f := func(nd *Node) StepProgram { return &chattyStep{rounds: 6} }
	run := func(path string, host HostState) error {
		_, err := NewNetwork(g, Config{Engine: EngineStepped}).RunSteppedCkpt(f, CkptSpec{Path: path, Every: 1, Host: host})
		return err
	}
	withHost := filepath.Join(t.TempDir(), "with.ckpt")
	if err := run(withHost, &hostBlob{b: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	// The completed run left its last checkpoint behind; resuming from it
	// without a receiver must fail.
	if err := run(withHost, nil); !errors.Is(err, ErrBadCkpt) {
		t.Errorf("host blob without receiver: err=%v, want ErrBadCkpt", err)
	}
	without := filepath.Join(t.TempDir(), "without.ckpt")
	if err := run(without, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(without, &hostBlob{}); !errors.Is(err, ErrBadCkpt) {
		t.Errorf("receiver without host blob: err=%v, want ErrBadCkpt", err)
	}
}

// FuzzCkptDecode mirrors FuzzCSRGDecode for the checkpoint format. The
// invariant: DecodeCkpt either rejects the input with ErrBadCkpt or accepts
// it, in which case re-encoding the decoded checkpoint reproduces the input
// byte for byte (so resume-after-decode replays exactly the bytes on disk).
func FuzzCkptDecode(f *testing.F) {
	for _, c := range testCkpts() {
		f.Add(c.Encode())
	}
	// Corrupt-class seeds: mutated header, mutated body, truncations.
	base := testCkpts()[2].Encode()
	for _, off := range []int{0, 8, 12, 16, 20, ckptHeaderSize, ckptHeaderSize + 5} {
		c := append([]byte(nil), base...)
		c[off] ^= 0x40
		f.Add(c)
	}
	f.Add(base[:ckptHeaderSize])
	f.Add(base[:len(base)-3])
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCkpt(data)
		if err != nil {
			if !errors.Is(err, ErrBadCkpt) {
				t.Fatalf("rejection outside ErrBadCkpt: %v", err)
			}
			return
		}
		if re := c.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not canonical: re-encode differs (%d vs %d bytes)", len(re), len(data))
		}
	})
}
