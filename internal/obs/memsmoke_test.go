package obs

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/testmem"
)

// raceEnabled is set by race_test.go under -race; the memory smoke test is
// meaningless with the race runtime's shadow memory inflating RSS.
var raceEnabled = false

// TestSteppedMillionNodeTracedRSS is CI's observability memory smoke: a
// million-node torus on the stepped engine with a Recorder streaming JSONL
// to disk must stay within the same RSS envelope as the untraced run
// (TestSteppedMillionNodeTorus in internal/congest) — telemetry streams,
// it must not accumulate per-node or per-round state proportional to the
// run. GOMEMLIMIT-style clamp plus a VmHWM ceiling, as in the untraced
// twin.
func TestSteppedMillionNodeTracedRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node smoke test skipped in -short")
	}
	if raceEnabled {
		t.Skip("race-detector shadow memory breaks the RSS budget")
	}
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(450 << 20))

	f, err := os.Create(filepath.Join(t.TempDir(), "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator()
	rec := NewRecorder(NewJSONL(f), agg)

	g := graph.Torus(1000, 1000)
	out := make([]int64, g.N())
	m, err := congest.NewNetwork(g, congest.Config{Engine: congest.EngineStepped, Observer: rec}).
		RunStepped(&echoStep{out: out, rounds: 16})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if m.Rounds != 16 {
		t.Fatalf("rounds=%d, want 16", m.Rounds)
	}
	p := agg.Profile()
	if p.Rounds != m.Rounds || p.Msgs != m.Messages {
		t.Errorf("profile rounds/msgs=%d/%d, want %d/%d", p.Rounds, p.Msgs, m.Rounds, m.Messages)
	}
	if hwm := testmem.ReadVmHWM(); hwm > 0 && hwm >= 700<<20 {
		t.Errorf("peak RSS %d MiB under JSONL observer, want < 700 MiB", hwm>>20)
	}
	runtime.KeepAlive(out)
}
