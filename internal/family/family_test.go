package family

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/obs"
	"congestds/internal/verify"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) < 2 {
		t.Fatalf("registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	for _, want := range []string{"paper", "thm1.1", "thm1.2", "cor1.3", "cds", "greedy", "exact", "arbmds", "mcds"} {
		if _, err := Get(want); err != nil {
			t.Errorf("Get(%q): %v", want, err)
		}
	}
}

func TestGetUnknownListsFamilies(t *testing.T) {
	_, err := Get("nope")
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, want := range []string{"arbmds", "mcds"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestFamiliesSolveAndCertify(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			f, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if f.Summary == "" {
				t.Error("empty summary")
			}
			g := graph.GNPConnected(40, 0.12, 5)
			res, err := f.Solve(g, Params{Sim: congest.EngineStepped})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cert == nil || !res.Cert.Passed() {
				t.Fatalf("certificate failed: %v", res.Cert)
			}
			if res.Cert.String() == "" {
				t.Error("empty certificate rendering")
			}
			if v := verify.FirstUndominated(g, res.Set); v != -1 {
				t.Errorf("node %d undominated", v)
			}
			if hostFamilies[name] {
				if res.Rounds != 0 {
					t.Errorf("host-side family reports %d rounds", res.Rounds)
				}
			} else if res.Rounds <= 0 {
				t.Errorf("rounds = %d", res.Rounds)
			}
		})
	}
}

// hostFamilies run sequentially on the host and report zero rounds.
var hostFamilies = map[string]bool{"greedy": true, "exact": true}

// TestRejectsBadParamsAsConfig: parameters an algorithm cannot honour are
// caller misuse, typed as congest.ErrConfig before anything runs.
func TestRejectsBadParamsAsConfig(t *testing.T) {
	small := graph.GNPConnected(30, 0.15, 11)
	disconnected, err := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo string
		g    *graph.Graph
		p    Params
	}{
		{"exact", graph.GNPConnected(100, 0.05, 1), Params{}},
		{"thm1.2", small, Params{Eps: 2}},
		{"paper", small, Params{Eps: math.NaN()}},
		{"thm1.1", small, Params{Eps: 1.5}},
		{"cor1.3", small, Params{MaxRounds: 10}},
		{"cds", small, Params{Eps: 3}},
		{"arbmds", small, Params{Eps: math.NaN()}},
		{"mcds", small, Params{Eps: math.NaN()}},
		{"arbmds", small, Params{Eps: math.Inf(1)}},
		{"thm1.2", small, Params{Eps: -1}},
		{"arbmds", small, Params{Eps: -1}},
		{"mcds", small, Params{Eps: -1}},
		{"mcds", small, Params{DiamBound: -5}},
		{"cds", disconnected, Params{}},
		{"mcds", disconnected, Params{}},
	}
	for _, c := range cases {
		f, err := Get(c.algo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Solve(c.g, c.p); !errors.Is(err, congest.ErrConfig) {
			t.Errorf("%s %+v: err = %v, want ErrConfig", c.algo, c.p, err)
		}
		// Canon must not fold a rejected value into an accepted one.
		if _, err := f.Solve(c.g, f.Canon(c.p)); !errors.Is(err, congest.ErrConfig) {
			t.Errorf("%s Canon(%+v): err = %v, want ErrConfig", c.algo, c.p, err)
		}
	}
}

// TestPaperDeadline: every simulated family — the paper pipelines, whose
// solve spans several runs, and the single-run arbmds and mcds — runs in
// the whole run context of Params: it stops with ErrDeadline once the
// deadline of Params.Ctx has passed, reports every measured round to
// Params.Observer, and gives the same set and rounds on the engine
// Params.Sim selects as on the default one.
func TestPaperDeadline(t *testing.T) {
	g := graph.GNPConnected(30, 0.15, 11)
	for _, name := range Names() {
		if hostFamilies[name] {
			continue
		}
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		if _, err := f.Solve(g, Params{Ctx: ctx}); !errors.Is(err, congest.ErrDeadline) {
			t.Errorf("%s: err = %v, want ErrDeadline", name, err)
		}
		cancel()

		rec := obs.NewRecorder()
		ref, err := f.Solve(g, Params{Observer: rec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		measured := ref.Rounds // arbmds, mcds: every round is simulated
		if ref.Ledger != nil {
			measured = ref.Ledger.Metrics().Rounds // the paper pipelines also charge rounds
		}
		observed := 0
		for _, seg := range rec.Segments() {
			observed += seg.Rounds
		}
		if measured == 0 || observed != measured {
			t.Errorf("%s: observer saw %d rounds in %d segment(s), want the %d measured",
				name, observed, len(rec.Segments()), measured)
		}

		gor, err := f.Solve(g, Params{Sim: congest.EngineGoroutine})
		if err != nil {
			t.Fatalf("%s goroutine engine: %v", name, err)
		}
		if !slices.Equal(gor.Set, ref.Set) || gor.Rounds != ref.Rounds {
			t.Errorf("%s: goroutine engine gave set %v rounds %d, default engine set %v rounds %d",
				name, gor.Set, gor.Rounds, ref.Set, ref.Rounds)
		}
	}
}

// TestParamsKeyCanonicalEquality is the regression test for the canonical
// equality gap Params historically had: a zero-valued parameter set and
// the default-filled set the family actually runs must collide exactly —
// but only after Family.Canon fills the family defaults, and only for
// parameter sets the family treats identically.
func TestParamsKeyCanonicalEquality(t *testing.T) {
	for _, name := range Names() {
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if f.DefaultEps <= 0 {
				t.Fatalf("family %s has no DefaultEps; Canon cannot canonicalize Eps", name)
			}
			zero := f.Canon(Params{})
			filled := f.Canon(Params{Eps: f.DefaultEps})
			if zero.Key() != filled.Key() {
				t.Errorf("zero-valued and default-filled params do not collide: %q vs %q",
					zero.Key(), filled.Key())
			}
			// A genuinely different Eps must not collide.
			other := f.Canon(Params{Eps: f.DefaultEps / 2})
			if other.Key() == zero.Key() {
				t.Errorf("eps=%g collides with the default key %q", f.DefaultEps/2, zero.Key())
			}
			// Execution-context fields never reach the key.
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			ctxed := f.Canon(Params{Ctx: ctx})
			if ctxed.Key() != zero.Key() {
				t.Errorf("execution-context fields leaked into the key: %q vs %q",
					ctxed.Key(), zero.Key())
			}
			// DiamBound only keys families that read it.
			diamed := f.Canon(Params{DiamBound: 42})
			if f.NeedsDiam && diamed.Key() == zero.Key() {
				t.Errorf("NeedsDiam family ignores DiamBound in the key")
			}
			if !f.NeedsDiam && diamed.Key() != zero.Key() {
				t.Errorf("DiamBound keys a family that never reads it: %q vs %q",
					diamed.Key(), zero.Key())
			}
		})
	}
}

// TestParamsKeyBustsOnSemanticChange pins that every semantic field
// changes the key — the serving layer's "cache busting on any param change"
// contract reduces to this — and that the engine does not: it never changes
// a certified output, so two engines share one cache entry.
func TestParamsKeyBustsOnSemanticChange(t *testing.T) {
	base := Params{Eps: 0.5}
	for name, p := range map[string]Params{
		"eps":       {Eps: 0.25},
		"maxrounds": {Eps: 0.5, MaxRounds: 64},
		"diam":      {Eps: 0.5, DiamBound: 9},
	} {
		if p.Key() == base.Key() {
			t.Errorf("%s change did not bust the key: %q", name, p.Key())
		}
	}
	if p := (Params{Eps: 0.5, Sim: congest.EngineGoroutine}); p.Key() != base.Key() {
		t.Errorf("sim change busted the key: %q vs %q", p.Key(), base.Key())
	}
}

// TestCanonPreservesSolve pins Canon's contract: canonicalization never
// changes what Solve computes, including for a negative round clamp, which
// Canon folds to zero (no clamp).
func TestCanonPreservesSolve(t *testing.T) {
	g := graph.GNPConnected(30, 0.15, 11)
	for _, name := range Names() {
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			base := Params{Sim: congest.EngineStepped, DiamBound: g.DiamBound()}
			unclamped := base
			unclamped.MaxRounds = -1
			for _, p := range []Params{base, unclamped} {
				raw, err := f.Solve(g, p)
				if err != nil {
					t.Fatalf("maxrounds=%d: %v", p.MaxRounds, err)
				}
				canon, err := f.Solve(g, f.Canon(p))
				if err != nil {
					t.Fatalf("maxrounds=%d canonicalized: %v", p.MaxRounds, err)
				}
				if !slices.Equal(raw.Set, canon.Set) || raw.Rounds != canon.Rounds {
					t.Errorf("maxrounds=%d: Canon changed the solve: set %v/%v rounds %d/%d",
						p.MaxRounds, raw.Set, canon.Set, raw.Rounds, canon.Rounds)
				}
			}
		})
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(Family{Name: "arbmds", Solve: func(*graph.Graph, Params) (*Result, error) { return nil, nil }})
}
