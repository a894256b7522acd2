package congest

import (
	"context"
	"errors"
	"testing"
	"time"

	"congestds/internal/graph"
)

// TestSentinelClass pins the error taxonomy the conformance suite and the
// CLIs depend on.
func TestSentinelClass(t *testing.T) {
	wrap := func(err error) error { return errors.Join(errors.New("ctx"), err) }
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrBandwidth, "bandwidth"},
		{ErrMaxRounds, "max-rounds"},
		{ErrDeadline, "deadline"},
		{ErrInjected, "injected"},
		{wrap(ErrDeadline), "deadline"},
		{ErrConfig, "config"},
		{wrap(ErrConfig), "config"},
		{errors.New("node 3 panicked"), "program"},
	}
	for _, c := range cases {
		if got := SentinelClass(c.err); got != c.want {
			t.Errorf("SentinelClass(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// sleepyStep burns ~1ms of wall clock per round and never stops — the
// workload the deadline must cut short.
type sleepyStep struct{}

func (s *sleepyStep) Init(nd *Node) bool { nd.Broadcast([]byte{1}); return false }
func (s *sleepyStep) Step(nd *Node, round int, in []Incoming) bool {
	if nd.V() == 0 {
		time.Sleep(time.Millisecond)
	}
	nd.Broadcast([]byte{1})
	return false
}

// TestDeadlineEnforced: on every engine and both program forms, a run whose
// program outlives Config.Deadline fails with ErrDeadline at a round
// boundary, and its metrics still report the progress it made. Timing
// assertions stay loose (the check has per-round granularity by contract).
func TestDeadlineEnforced(t *testing.T) {
	g := graph.Cycle(9)
	deadline := 30 * time.Millisecond
	for _, eng := range Engines() {
		cfg := Config{Engine: eng, Deadline: deadline, MaxRounds: 1 << 20}
		check := func(form string, m Metrics, err error, elapsed time.Duration) {
			if !errors.Is(err, ErrDeadline) {
				t.Errorf("%v %s: err=%v, want ErrDeadline", eng, form, err)
			}
			if m.Rounds < 1 {
				t.Errorf("%v %s: Rounds=%d; a failed run must report its progress", eng, form, m.Rounds)
			}
			// The run must stop within the deadline plus bounded overshoot —
			// generous slack so loaded CI machines don't flake, but far below
			// what the MaxRounds backstop (~2^20 rounds) would take.
			if elapsed > deadline+2*time.Second {
				t.Errorf("%v %s: run took %v against a %v deadline", eng, form, elapsed, deadline)
			}
		}
		start := time.Now()
		m, err := NewNetwork(g, cfg).Run(func(nd *Node) {
			for {
				if nd.V() == 0 {
					time.Sleep(time.Millisecond)
				}
				nd.Broadcast([]byte{1})
				nd.Sync()
			}
		})
		check("blocking", m, err, time.Since(start))

		start = time.Now()
		m, err = NewNetwork(g, cfg).RunStepped(func(nd *Node) StepProgram { return &sleepyStep{} })
		check("stepped", m, err, time.Since(start))
	}
}

// TestContextCancellation: cancelling Config.Ctx stops the run at the next
// round boundary with the deadline sentinel.
func TestContextCancellation(t *testing.T) {
	g := graph.Cycle(9)
	for _, eng := range Engines() {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		cfg := Config{Engine: eng, Ctx: ctx, MaxRounds: 1 << 20}
		m, err := NewNetwork(g, cfg).RunStepped(func(nd *Node) StepProgram { return &sleepyStep{} })
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("%v: err=%v, want ErrDeadline after cancellation", eng, err)
		}
		if got := SentinelClass(err); got != "deadline" {
			t.Errorf("%v: class %q, want deadline", eng, got)
		}
		if m.Rounds < 1 {
			t.Errorf("%v: Rounds=%d; cancelled runs must report their progress", eng, m.Rounds)
		}
		cancel()
	}
}

// TestExpiredContextPreRun: a context already cancelled when the run starts
// still yields ErrDeadline at the first boundary, not a hang or a nil.
func TestExpiredContextPreRun(t *testing.T) {
	g := graph.Path(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range Engines() {
		_, err := NewNetwork(g, Config{Engine: eng, Ctx: ctx}).Run(func(nd *Node) {
			nd.Broadcast([]byte{1})
			nd.Sync()
			nd.Sync()
		})
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("%v: err=%v, want ErrDeadline", eng, err)
		}
	}
}
