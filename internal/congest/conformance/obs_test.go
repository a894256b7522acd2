package conformance

import (
	"bytes"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/obs"
)

// observed reruns a captured run with a Recorder attached and returns the
// new Result plus the recorder's profile.
func observedRunOn(c Case, g *graph.Graph, eng congest.Engine, cfg congest.Config, stepped bool) (Result, obs.Profile) {
	agg := obs.NewAggregator()
	cfg.Observer = obs.NewRecorder(agg)
	var got Result
	if stepped {
		got = runStepOn(c, g, eng, cfg)
	} else {
		got = runOn(c, g, eng, cfg)
	}
	return got, agg.Profile()
}

// diffObserved compares a plain run against its observed twin: byte-equal
// output, identical metrics (or identical sentinel class and failure
// progress), and the invariant that the observer saw exactly Metrics.Rounds
// round deliveries carrying exactly the run's traffic.
func diffObserved(t *testing.T, label string, plain, got Result, p obs.Profile) {
	t.Helper()
	if (plain.Err == nil) != (got.Err == nil) {
		t.Fatalf("%s: error mismatch: plain=%v observed=%v", label, plain.Err, got.Err)
	}
	if plain.Err != nil {
		if pc, gc := congest.SentinelClass(plain.Err), congest.SentinelClass(got.Err); pc != gc {
			t.Fatalf("%s: sentinel class mismatch: plain=%q observed=%q", label, pc, gc)
		}
		if err := diffFailureMetrics(plain.Metrics, got.Metrics); err != nil {
			t.Fatalf("%s (failed run): %v", label, err)
		}
	} else {
		if !bytes.Equal(plain.Output, got.Output) {
			t.Fatalf("%s: output diverges under observer (%d vs %d bytes)",
				label, len(plain.Output), len(got.Output))
		}
		if err := diffMetrics(plain.Metrics, got.Metrics); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if p.Rounds != got.Metrics.Rounds {
		t.Fatalf("%s: observer saw %d RoundEnds, Metrics.Rounds=%d", label, p.Rounds, got.Metrics.Rounds)
	}
	if p.Msgs != got.Metrics.Messages || p.Bits != got.Metrics.Bits {
		t.Fatalf("%s: observer traffic %d msgs/%d bits, metrics %d/%d",
			label, p.Msgs, p.Bits, got.Metrics.Messages, got.Metrics.Bits)
	}
	if p.Hist.Total() != got.Metrics.Messages {
		t.Fatalf("%s: histogram counts %d messages, metrics %d", label, p.Hist.Total(), got.Metrics.Messages)
	}
}

// TestObserverNonParticipation is the observability tentpole's conformance
// guarantee: attaching an obs.Recorder changes nothing. Every registered
// program over the full corpus, on every engine and in both program forms,
// produces byte-identical outputs, identical metrics and identical
// sentinel classes with and without an observer — and the observer's view
// reconciles exactly with the run's metrics.
func TestObserverNonParticipation(t *testing.T) {
	corpus := Corpus(testing.Short())
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			cfg := congest.Config{}
			for _, ng := range corpus {
				for _, eng := range congest.Engines() {
					plain := runOn(c, ng.G, eng, cfg)
					got, p := observedRunOn(c, ng.G, eng, cfg, false)
					diffObserved(t, ng.Name+"/blocking/"+eng.String(), plain, got, p)
					plain = runStepOn(c, ng.G, eng, cfg)
					got, p = observedRunOn(c, ng.G, eng, cfg, true)
					diffObserved(t, ng.Name+"/stepped/"+eng.String(), plain, got, p)
				}
			}
		})
	}
}

// TestObserverNonParticipationOnFailure drives the same identity through
// failing runs: a clamped MaxRounds aborts every case mid-flight, and the
// observed run must fail with the same sentinel, the same progress
// metrics, and RoundEnd count equal to the failed run's Metrics.Rounds.
func TestObserverNonParticipationOnFailure(t *testing.T) {
	g := graph.GNPConnected(40, 0.1, 1)
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			cfg := congest.Config{MaxRounds: 2}
			for _, eng := range congest.Engines() {
				plain := runOn(c, g, eng, cfg)
				got, p := observedRunOn(c, g, eng, cfg, false)
				diffObserved(t, "maxrounds/blocking/"+eng.String(), plain, got, p)
				plain = runStepOn(c, g, eng, cfg)
				got, p = observedRunOn(c, g, eng, cfg, true)
				diffObserved(t, "maxrounds/stepped/"+eng.String(), plain, got, p)
			}
		})
	}
}
