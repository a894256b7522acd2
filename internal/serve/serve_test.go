package serve

// Service-level e2e suite: every handler exercised through httptest
// against every registered family, success bodies byte-identical across
// repeat calls, and every congest sentinel class regression-tested against
// its pinned HTTP status — both as a unit table over StatusForClass and
// end-to-end through synthetic always-failing families.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/obs"
)

func TestSolveAndCertifyEveryFamily(t *testing.T) {
	dir := t.TempDir()
	path := writeCSRG(t, dir, "g.csrg", testGraph())
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}})

	for _, name := range family.Names() {
		if strings.HasPrefix(name, testFamPrefix) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, ep := range []string{"/solve", "/certify"} {
				url := ts.URL + ep + "?graph=g&algo=" + name
				status1, state1, _, body1 := get(t, url)
				if status1 != http.StatusOK {
					t.Fatalf("%s: status %d, body %s", ep, status1, body1)
				}
				status2, state2, _, body2 := get(t, url)
				if status2 != http.StatusOK {
					t.Fatalf("%s repeat: status %d", ep, status2)
				}
				if !bytes.Equal(body1, body2) {
					t.Errorf("%s: repeat body differs:\n%s\nvs\n%s", ep, body1, body2)
				}
				if state2 != "hit" {
					t.Errorf("%s repeat: X-Mdsd-Cache = %q, want hit", ep, state2)
				}
				_ = state1 // first call may be miss (solve) or hit (certify shares the entry)
				var view struct {
					Graph   string `json:"graph"`
					Algo    string `json:"algo"`
					N       int    `json:"n"`
					Rounds  int    `json:"rounds"`
					SetSize int    `json:"set_size"`
					Passed  bool   `json:"passed"`
				}
				if err := json.Unmarshal(body1, &view); err != nil {
					t.Fatalf("%s: body not JSON: %v\n%s", ep, err, body1)
				}
				if !view.Passed {
					t.Errorf("%s: certificate did not pass:\n%s", ep, body1)
				}
				if view.Algo != name || view.N != testGraph().N() || view.SetSize == 0 {
					t.Errorf("%s: implausible body: %+v", ep, view)
				}
				// The host-side baselines run no simulated rounds.
				if host := name == "greedy" || name == "exact"; host != (view.Rounds == 0) {
					t.Errorf("%s: %d rounds for %s", ep, view.Rounds, name)
				}
			}
		})
	}

	// /solve and /certify render from the same cache entry: after the
	// sweep above, total engine runs must equal the family count, not 2×.
	fams := 0
	for _, name := range family.Names() {
		if !strings.HasPrefix(name, testFamPrefix) {
			fams++
		}
	}
	if st := s.Stats(); st.Runs != int64(fams) {
		t.Errorf("Runs = %d, want %d (one per family across both endpoints)", st.Runs, fams)
	}
}

func TestStatusForClassPinnedTable(t *testing.T) {
	want := map[string]int{
		"":           http.StatusOK,
		"config":     http.StatusBadRequest,
		"max-rounds": http.StatusUnprocessableEntity,
		"deadline":   http.StatusGatewayTimeout,
		"bandwidth":  http.StatusInternalServerError,
		"injected":   http.StatusInternalServerError,
		"bad-ckpt":   http.StatusInternalServerError,
		"program":    http.StatusInternalServerError,
	}
	for class, status := range want {
		if got := StatusForClass(class); got != status {
			t.Errorf("StatusForClass(%q) = %d, want %d", class, got, status)
		}
	}
}

func TestSentinelClassesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}})

	for class, fam := range sentinelFamilies {
		t.Run(class, func(t *testing.T) {
			status, _, sentinel, body := get(t, ts.URL+"/solve?graph=g&algo="+fam)
			if want := StatusForClass(class); status != want {
				t.Errorf("status = %d, want %d", status, want)
			}
			if sentinel != class {
				t.Errorf("X-Mdsd-Sentinel = %q, want %q", sentinel, class)
			}
			var ev struct {
				Error    string `json:"error"`
				Sentinel string `json:"sentinel"`
			}
			if err := json.Unmarshal(body, &ev); err != nil {
				t.Fatalf("error body not JSON: %v\n%s", err, body)
			}
			if ev.Error == "" || ev.Sentinel != class {
				t.Errorf("error body = %+v, want sentinel %q and a message", ev, class)
			}
		})
	}
	st := s.Stats()
	if want := int64(len(sentinelFamilies)); st.Runs != want || st.Errors != want {
		t.Errorf("Runs/Errors = %d/%d, want %d/%d", st.Runs, st.Errors, want, want)
	}
	if st.CacheEntries != 0 {
		t.Errorf("failed runs were cached: %d entries", st.CacheEntries)
	}
}

func TestRealRequestFailurePaths(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	big := writeText(t, dir, "big.txt", graph.GNPConnected(100, 0.05, 1))
	_, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path, "big": big}})

	cases := []struct {
		name     string
		query    string
		status   int
		sentinel string
	}{
		{"unknown graph", "/solve?graph=nope&algo=arbmds", http.StatusNotFound, ""},
		{"unknown algo", "/solve?graph=g&algo=nope", http.StatusNotFound, ""},
		{"missing graph", "/solve?algo=arbmds", http.StatusBadRequest, "config"},
		{"missing algo", "/solve?graph=g", http.StatusBadRequest, "config"},
		{"bad eps", "/solve?graph=g&algo=arbmds&eps=abc", http.StatusBadRequest, "config"},
		{"negative eps", "/solve?graph=g&algo=arbmds&eps=-1", http.StatusBadRequest, "config"},
		{"bad sim", "/solve?graph=g&algo=arbmds&sim=stepped", http.StatusBadRequest, "config"},
		{"bad maxrounds", "/solve?graph=g&algo=arbmds&maxrounds=-2", http.StatusBadRequest, "config"},
		{"bad diam", "/solve?graph=g&algo=arbmds&diam=x", http.StatusBadRequest, "config"},
		{"bad deadline", "/solve?graph=g&algo=arbmds&deadline=banana", http.StatusBadRequest, "config"},
		{"unknown query key", "/solve?graph=g&algo=arbmds&maxrunds=3", http.StatusBadRequest, "config"},
		{"round clamp hit", "/solve?graph=g&algo=arbmds&maxrounds=1", http.StatusUnprocessableEntity, "max-rounds"},
		{"deadline elapsed", "/solve?graph=g&algo=arbmds&deadline=1ns", http.StatusGatewayTimeout, "deadline"},
		// exact is exponential: the adapter refuses it before solving.
		{"exact too big", "/solve?graph=big&algo=exact", http.StatusBadRequest, "config"},
		{"paper eps out of range", "/solve?graph=g&algo=thm1.2&eps=2", http.StatusBadRequest, "config"},
		{"paper round clamp", "/solve?graph=g&algo=thm1.2&maxrounds=5", http.StatusBadRequest, "config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, sentinel, body := get(t, ts.URL+tc.query)
			if status != tc.status {
				t.Errorf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			if sentinel != tc.sentinel {
				t.Errorf("X-Mdsd-Sentinel = %q, want %q", sentinel, tc.sentinel)
			}
		})
	}

	t.Run("bad method", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/solve?graph=g&algo=arbmds", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE /solve: status %d, want 405", resp.StatusCode)
		}
	})
}

// TestPaperDeadlineNotCached: the deadline query parameter bounds the
// paper pipeline too; the 504 is not cached, so the next request without a
// deadline runs fresh.
func TestPaperDeadlineNotCached(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}})

	status, _, sentinel, body := get(t, ts.URL+"/solve?graph=g&algo=thm1.2&deadline=1ns")
	if status != http.StatusGatewayTimeout || sentinel != "deadline" {
		t.Fatalf("status %d, X-Mdsd-Sentinel %q, want 504 deadline (body %s)", status, sentinel, body)
	}
	if st := s.Stats(); st.CacheEntries != 0 {
		t.Errorf("deadline failure was cached: %d entries", st.CacheEntries)
	}
	status, state, _, body := get(t, ts.URL+"/solve?graph=g&algo=thm1.2")
	if status != http.StatusOK || state != "miss" {
		t.Errorf("retry without deadline: status %d, X-Mdsd-Cache %q, want 200 miss (body %s)", status, state, body)
	}
}

func TestCertificationViolationIsNeverCached(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}})

	url := ts.URL + "/solve?graph=g&algo=" + testFamPrefix + "certfail"
	for i := 0; i < 2; i++ {
		status, _, _, body := get(t, url)
		if status != http.StatusInternalServerError {
			t.Fatalf("call %d: status %d, want 500", i, status)
		}
		if !bytes.Contains(body, []byte("certification violation")) {
			t.Fatalf("call %d: body does not name the violation: %s", i, body)
		}
	}
	st := s.Stats()
	if st.Runs != 2 {
		t.Errorf("Runs = %d, want 2 (cert-failing results must not be cached)", st.Runs)
	}
	if st.CacheEntries != 0 {
		t.Errorf("cert-failing result was cached: %d entries", st.CacheEntries)
	}
}

func TestGraphsEndpoint(t *testing.T) {
	dir := t.TempDir()
	csrg := writeCSRG(t, dir, "g.csrg", testGraph())
	txt := writeText(t, dir, "h.txt", testGraph())
	_, ts := newTestServer(t, Config{Graphs: map[string]string{"g": csrg, "h": txt}})

	// Nothing resident before the first solve.
	status, _, _, body := get(t, ts.URL+"/graphs")
	if status != http.StatusOK {
		t.Fatalf("/graphs: status %d", status)
	}
	var view struct {
		Graphs []struct {
			Name        string `json:"name"`
			Fingerprint string `json:"fingerprint"`
			Mapped      bool   `json:"mapped"`
			Bytes       int64  `json:"bytes"`
		} `json:"graphs"`
		ResidentBytes int64 `json:"resident_bytes"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("/graphs body not JSON: %v\n%s", err, body)
	}
	if len(view.Graphs) != 0 {
		t.Fatalf("graphs resident before any request: %+v", view.Graphs)
	}

	get(t, ts.URL+"/solve?graph=g&algo=arbmds")
	get(t, ts.URL+"/solve?graph=h&algo=arbmds")
	_, _, _, body = get(t, ts.URL+"/graphs")
	view.Graphs = nil
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Graphs) != 2 || view.ResidentBytes <= 0 {
		t.Fatalf("unexpected /graphs after solves: %s", body)
	}
	// Most recently used first: h was requested last.
	if view.Graphs[0].Name != "h" || view.Graphs[1].Name != "g" {
		t.Errorf("LRU order wrong: %s then %s", view.Graphs[0].Name, view.Graphs[1].Name)
	}
	for _, g := range view.Graphs {
		if wantMapped := g.Name == "g"; g.Mapped != wantMapped {
			t.Errorf("%s: mapped = %v, want %v", g.Name, g.Mapped, wantMapped)
		}
		if len(g.Fingerprint) != 8 || g.Bytes <= 0 {
			t.Errorf("%s: implausible listing row: %+v", g.Name, g)
		}
	}
	// Same content on disk twice → same fingerprint in both rows.
	if view.Graphs[0].Fingerprint != view.Graphs[1].Fingerprint {
		t.Errorf("same graph content, different fingerprints: %q vs %q",
			view.Graphs[0].Fingerprint, view.Graphs[1].Fingerprint)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: status %d, body %q", status, body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	_, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}})

	url := ts.URL + "/solve?graph=g&algo=arbmds"
	get(t, url) // cold: one run, one miss
	get(t, url) // warm: one hit

	status, _, _, body := get(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("/stats: status %d", status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/stats body not JSON: %v\n%s", err, body)
	}
	if st.Runs != 1 || st.CacheMisses != 1 || st.CacheHits != 1 || st.Errors != 0 {
		t.Errorf("counters = runs %d, misses %d, hits %d, errors %d; want 1/1/1/0",
			st.Runs, st.CacheMisses, st.CacheHits, st.Errors)
	}
	fs, ok := st.Families["arbmds"]
	if !ok {
		t.Fatalf("no arbmds family stats in %s", body)
	}
	if fs.Runs != 1 || fs.RoundsP50 <= 0 || fs.RoundsMax < fs.RoundsP50 {
		t.Errorf("implausible family stats: %+v", fs)
	}
	if fs.WallMsMax < fs.WallMsP50 || fs.WallMsP50 < 0 {
		t.Errorf("implausible wall percentiles: %+v", fs)
	}
	if st.CacheEntries != 1 || st.CacheBytes <= 0 || st.GraphsResident != 1 {
		t.Errorf("gauges = entries %d, bytes %d, resident %d; want 1, >0, 1",
			st.CacheEntries, st.CacheBytes, st.GraphsResident)
	}
}

// eventKinds is a RunSink recording the engine event kinds the runs
// emitted, which tell the engines apart: only the goroutine engine emits
// "wake", only the stepped one "sweep-start".
type eventKinds struct {
	mu    sync.Mutex
	kinds map[string]int
}

func (k *eventKinds) Round(obs.RoundRec) {}
func (k *eventKinds) Event(e obs.EventRec) {
	k.mu.Lock()
	k.kinds[e.Kind]++
	k.mu.Unlock()
}
func (k *eventKinds) Close() error { return nil }

// take returns the kinds recorded since the last take.
func (k *eventKinds) take() map[string]int {
	k.mu.Lock()
	defer k.mu.Unlock()
	m := k.kinds
	k.kinds = map[string]int{}
	return m
}

func TestEngineParamSelectsEngine(t *testing.T) {
	// Config.Engine selects the engine every run uses, but never the
	// certified answer: the engines are conformant, so both servers render
	// byte-identical bodies and the params key does not name the engine.
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	solve := func(engine congest.Engine) (map[string]int, []byte) {
		kinds := &eventKinds{kinds: map[string]int{}}
		_, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}, Engine: engine, RunSink: kinds})
		status, _, _, body := get(t, ts.URL+"/solve?graph=g&algo=arbmds")
		if status != http.StatusOK {
			t.Fatalf("%v: status %d, body %s", engine, status, body)
		}
		return kinds.take(), body
	}
	k, gor := solve(congest.EngineGoroutine)
	if k["wake"] == 0 || k["sweep-start"] != 0 {
		t.Errorf("goroutine engine emitted %v, want goroutine-engine events only", k)
	}
	// EngineStepped is the zero Config's engine, the default.
	k, def := solve(congest.EngineStepped)
	if k["sweep-start"] == 0 || k["wake"] != 0 {
		t.Errorf("default engine emitted %v, want stepped-engine events only", k)
	}
	if !bytes.Equal(def, gor) {
		t.Errorf("bodies differ across engines:\n goroutine: %s\n stepped: %s", gor, def)
	}

	var a struct {
		Params string `json:"params"`
	}
	if err := json.Unmarshal(def, &a); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(a.Params, "sim=") {
		t.Errorf("params key %q names the engine", a.Params)
	}
}
