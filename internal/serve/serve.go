// Package serve is the resident graph-serving layer behind cmd/mdsd: an
// HTTP service that loads graphs once (heap or memory-mapped .csrg), keeps
// them resident behind a byte-budgeted LRU keyed by content fingerprint
// (graph.Fingerprint), and answers solve/certify queries by dispatching
// through the algorithm-family registry (internal/family).
//
// Three mechanisms make repeated queries cheap without weakening any
// guarantee:
//
//   - Residency: a graph is loaded at most once while it stays in the LRU;
//     .csrg graphs are served zero-copy from the mapping, pinned against
//     eviction (refcount) while any run uses them.
//   - Coalescing: concurrent requests for the same (graph fingerprint,
//     family, canonical params) key collapse into one engine run via a
//     singleflight; every waiter receives byte-identical bytes.
//   - Certified-solution cache: a bounded LRU of rendered responses,
//     populated only by certificate-passing results — the verifier's
//     certificate is what makes a cached answer as trustworthy as a fresh
//     solve — and busted by any semantic parameter change (family.Params.Key).
//
// Failures stay typed end to end: a run error's congest.SentinelClass maps
// to a pinned HTTP status (StatusForClass), echoed in the X-Mdsd-Sentinel
// header and the JSON error body, so HTTP clients can dispatch on failure
// classes exactly like mdsrun's exit-code scripting API. Per-run telemetry
// rides an obs.Recorder (the repo's only sanctioned clock reader);
// GET /stats exposes run, coalescing and cache counters plus per-family
// round and wall-time percentiles.
//
// Endpoints: GET/POST /solve and /certify (graph, algo, and optional eps,
// maxrounds, diam, deadline query parameters), GET /graphs (resident
// listing), GET /stats, GET /healthz. Every run uses the server's engine
// (Config.Engine); requests cannot select one.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"congestds/internal/congest"
	"congestds/internal/family"
	"congestds/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Graphs preregisters name → path. Paths ending in .csrg are served
	// from a zero-copy memory mapping.
	Graphs map[string]string
	// Dir, when non-empty, additionally serves any file under this root by
	// its relative path.
	Dir string
	// GraphBudget bounds the resident graphs' total CSR bytes (0 =
	// unlimited); least-recently-used unpinned graphs are evicted past it.
	GraphBudget int64
	// CacheBudget bounds the certified-solution cache in rendered response
	// bytes (0 = unlimited).
	CacheBudget int64
	// Engine is the engine every run uses (zero value: stepped). The
	// engines are conformant, so it changes wall-clock time only, never an
	// answer or the cache key.
	Engine congest.Engine
	// RunSink, when non-nil, is attached to every engine run's
	// obs.Recorder in addition to the server's own accounting. Test seam:
	// a sink counting first-round records observes exactly how many engine
	// runs the server really performed.
	RunSink obs.Sink
}

// Server is the HTTP service. Create with New; it serves via the standard
// http.Handler interface.
type Server struct {
	cfg    Config
	store  *Store
	cache  *resultCache
	flight flightGroup
	stats  counters
	mux    *http.ServeMux
}

// New builds a Server over cfg.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		store: NewStore(cfg.Graphs, cfg.Dir, cfg.GraphBudget),
		cache: newResultCache(cfg.CacheBudget),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, false) })
	s.mux.HandleFunc("/certify", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, true) })
	s.mux.HandleFunc("/graphs", s.handleGraphs)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StatusForClass pins the congest sentinel taxonomy onto HTTP statuses —
// the service-level twin of mdsrun's exit codes, regression-tested per
// class:
//
//	""           200 OK                    (run succeeded)
//	config       400 Bad Request           (caller misuse; the run never started)
//	max-rounds   422 Unprocessable Entity  (the instance hit its round clamp)
//	deadline     504 Gateway Timeout       (the request's budget elapsed)
//	bandwidth    500 Internal Server Error (engine contract violation — a bug)
//	injected     500 Internal Server Error (a chaos fault schedule aborted the run)
//	program      500 Internal Server Error (any other failure)
//
// Unknown graph or algorithm names are not run failures and map to 404
// before any run starts.
func StatusForClass(class string) int {
	switch class {
	case "":
		return http.StatusOK
	case "config":
		return http.StatusBadRequest
	case "max-rounds":
		return http.StatusUnprocessableEntity
	case "deadline":
		return http.StatusGatewayTimeout
	default: // bandwidth, injected, program
		return http.StatusInternalServerError
	}
}

// Stats snapshots the server's counters, filling in the cache and store
// gauges.
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	st.CacheEntries, st.CacheBytes, st.CacheEvictions = s.cache.usage()
	st.GraphsResident, st.GraphBytes, st.GraphEvictions = s.store.Usage()
	return st
}

// solveView is the /solve response body. The graph is identified by its
// content fingerprint, not the request name: two names for the same bytes
// share one cache entry, so the body must not depend on which name asked.
type solveView struct {
	Graph       string   `json:"graph"` // content fingerprint, hex
	Algo        string   `json:"algo"`
	Params      string   `json:"params"` // canonical family.Params.Key
	N           int      `json:"n"`
	Rounds      int      `json:"rounds"`
	SetSize     int      `json:"set_size"`
	Certificate string   `json:"certificate"`
	Passed      bool     `json:"passed"`
	Notes       []string `json:"notes,omitempty"`
	Set         []int    `json:"set"`
}

// certifyView is the /certify response body: the certificate without the
// solution members.
type certifyView struct {
	Graph       string `json:"graph"`
	Algo        string `json:"algo"`
	Params      string `json:"params"`
	N           int    `json:"n"`
	Rounds      int    `json:"rounds"`
	SetSize     int    `json:"set_size"`
	Certificate string `json:"certificate"`
	Passed      bool   `json:"passed"`
}

// errorView is every error response body.
type errorView struct {
	Error    string `json:"error"`
	Sentinel string `json:"sentinel,omitempty"`
}

// render builds the cache entry for a certified result: both endpoint
// bodies marshaled once, so every future hit writes identical bytes.
func render(key string, fp uint32, algo string, p family.Params, res *family.Result, n int) *entry {
	fph := fmt.Sprintf("%08x", fp)
	solve := mustJSON(solveView{
		Graph: fph, Algo: algo, Params: p.Key(), N: n,
		Rounds: res.Rounds, SetSize: len(res.Set),
		Certificate: res.Cert.String(), Passed: res.Cert.Passed(),
		Notes: res.Notes, Set: res.Set,
	})
	certify := mustJSON(certifyView{
		Graph: fph, Algo: algo, Params: p.Key(), N: n,
		Rounds: res.Rounds, SetSize: len(res.Set),
		Certificate: res.Cert.String(), Passed: res.Cert.Passed(),
	})
	return &entry{key: key, solve: solve, certify: certify, bytes: int64(len(solve) + len(certify))}
}

// mustJSON marshals a response view. The views contain only
// marshal-friendly fields, so an error is a programming bug.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("serve: marshaling response view: " + err.Error())
	}
	return append(b, '\n')
}

// configErr wraps congest.ErrConfig so request-parsing failures carry the
// same sentinel class ("config" → 400) as engine-level caller misuse.
func configErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", congest.ErrConfig, fmt.Sprintf(format, args...))
}

// queryKeys are the recognized /solve and /certify query parameters.
// Unknown keys are rejected: a typo like "maxrunds" silently ignored would
// serve the wrong cached answer with a 200.
var queryKeys = map[string]bool{
	"graph": true, "algo": true, "eps": true,
	"maxrounds": true, "diam": true, "deadline": true,
}

// parseParams decodes the optional solve parameters; runs use engine.
// Every failure wraps congest.ErrConfig.
func parseParams(q url.Values, engine congest.Engine) (family.Params, time.Duration, error) {
	p := family.Params{Sim: engine}
	for key := range q {
		if !queryKeys[key] {
			return p, 0, configErr("unknown query parameter %q", key)
		}
	}
	if v := q.Get("eps"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return p, 0, configErr("bad eps %q (want a finite value ≥ 0)", v)
		}
		p.Eps = f
	}
	if v := q.Get("maxrounds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, 0, configErr("bad maxrounds %q (want an integer ≥ 0)", v)
		}
		p.MaxRounds = n
	}
	if v := q.Get("diam"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, 0, configErr("bad diam %q (want an integer ≥ 0)", v)
		}
		p.DiamBound = n
	}
	var deadline time.Duration
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return p, 0, configErr("bad deadline %q (want a positive duration)", v)
		}
		deadline = d
	}
	return p, deadline, nil
}

// handleQuery is the shared /solve and /certify pipeline: parse →
// acquire graph → canonicalize → cache → coalesce → run → render.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, certify bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET or POST", "")
		return
	}
	q := r.URL.Query()
	name, algo := q.Get("graph"), q.Get("algo")
	if name == "" || algo == "" {
		s.writeClassified(w, configErr("graph and algo query parameters are required"))
		return
	}
	fam, err := family.Get(algo)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err.Error(), "")
		return
	}
	p, deadline, err := parseParams(q, s.cfg.Engine)
	if err != nil {
		s.writeClassified(w, err)
		return
	}
	res, err := s.store.Acquire(name)
	if err != nil {
		// Not a run failure: no sentinel class, just the pinned status.
		status := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownGraph) {
			status = http.StatusNotFound
		}
		s.writeError(w, status, err.Error(), "")
		return
	}
	defer s.store.Release(res)

	if fam.NeedsDiam && p.DiamBound == 0 {
		p.DiamBound = res.DiamBound()
	}
	p = fam.Canon(p)
	key := fmt.Sprintf("%08x|%s|%s", res.FP, fam.Name, p.Key())

	if ent := s.cache.get(key); ent != nil {
		s.stats.cacheHit()
		s.writeEntry(w, ent, certify, "hit")
		return
	}

	// Execution context threads into the run but never into the key: the
	// leader's request drives a coalesced run, so its context, deadline
	// included, bounds every waiter's answer too (documented singleflight
	// semantics).
	p.Ctx = r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		p.Ctx, cancel = context.WithTimeout(p.Ctx, deadline)
		defer cancel()
	}

	out, coalesced := s.flight.do(key, func() outcome { return s.runSolve(key, fam, res, p) })
	state := "miss"
	if coalesced {
		s.stats.coalescedHit()
		state = "coalesced"
	}
	if out.ent == nil {
		s.writeError(w, out.status, out.errMsg, out.sentinel)
		return
	}
	s.writeEntry(w, out.ent, certify, state)
}

// runSolve executes one engine run as a flight leader: re-check the cache
// (a previous flight may have landed between our miss and the flight
// start), run the family with a per-run obs.Recorder, record stats, and
// cache the rendered result iff its certificate passed.
func (s *Server) runSolve(key string, fam family.Family, res *Resident, p family.Params) outcome {
	if ent := s.cache.get(key); ent != nil {
		s.stats.cacheHit()
		return outcome{ent: ent, status: http.StatusOK}
	}
	s.stats.cacheMissed()

	var sinks []obs.Sink
	if s.cfg.RunSink != nil {
		sinks = append(sinks, s.cfg.RunSink)
	}
	rec := obs.NewRecorder(sinks...)
	p.Observer = rec

	result, err := fam.Solve(res.G, p)
	var wallNs int64
	for _, seg := range rec.Segments() {
		wallNs += seg.WallNs
	}
	if err != nil {
		s.stats.runFailed()
		class := congest.SentinelClass(err)
		return outcome{status: StatusForClass(class), errMsg: err.Error(), sentinel: class}
	}
	s.stats.runDone(fam.Name, result.Rounds, wallNs)
	if !result.Cert.Passed() {
		// A cert-failing output is a bug, never cached: the cache's whole
		// trust argument is that every entry carries a passing certificate.
		return outcome{
			status: http.StatusInternalServerError,
			errMsg: fmt.Sprintf("certification violation: %s output failed its certificate (bug): %v", fam.Name, result.Cert),
		}
	}
	ent := render(key, res.FP, fam.Name, p, result, res.G.N())
	s.cache.put(ent)
	return outcome{ent: ent, status: http.StatusOK}
}

// writeEntry writes a cached/coalesced/fresh success body. The body bytes
// are the entry's rendered bytes verbatim — byte-identical across repeat
// calls by construction; only the advisory X-Mdsd-Cache header varies.
func (s *Server) writeEntry(w http.ResponseWriter, ent *entry, certify bool, state string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Mdsd-Cache", state)
	body := ent.solve
	if certify {
		body = ent.certify
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// writeClassified maps err through the sentinel taxonomy and writes it.
func (s *Server) writeClassified(w http.ResponseWriter, err error) {
	class := congest.SentinelClass(err)
	s.writeError(w, StatusForClass(class), err.Error(), class)
}

// writeError writes the JSON error body, naming the sentinel class in the
// X-Mdsd-Sentinel header when the failure carries one.
func (s *Server) writeError(w http.ResponseWriter, status int, msg, sentinel string) {
	w.Header().Set("Content-Type", "application/json")
	if sentinel != "" {
		w.Header().Set("X-Mdsd-Sentinel", sentinel)
	}
	w.WriteHeader(status)
	w.Write(mustJSON(errorView{Error: msg, Sentinel: sentinel}))
}

// graphsView is the /graphs response body.
type graphsView struct {
	Graphs        []ResidentInfo `json:"graphs"`
	ResidentBytes int64          `json:"resident_bytes"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET", "")
		return
	}
	_, bytes, _ := s.store.Usage()
	w.Header().Set("Content-Type", "application/json")
	w.Write(mustJSON(graphsView{Graphs: s.store.Residents(), ResidentBytes: bytes}))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET", "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(mustJSON(s.Stats()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
