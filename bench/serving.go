package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"congestds/internal/congest"
	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/serve"
	"congestds/internal/verify"
)

// Serving workloads: serve.New behind a loopback net/http listener with
// the stepped engine as its default, as cmd/mdsd runs it, driven by
// closedLoopClients clients that share that many keep-alive connections
// and each send the next request when the previous reply has been read.

const closedLoopClients = 2

// tinyEps is how many eps values per family the test-sized inputs keep.
const tinyEps = 2

// Headers the traced pass adds so the server-side span can name its client
// span and request.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
	hdrLane = "X-Bench-Lane"
)

// serveSpec is one serving workload. Its traffic mix is an assumption: no
// recorded mdsd traffic exists yet, so each mix is chosen to exercise one
// property of the daemon (see README.md#workloads), and the /solve–/certify
// split is an even one.
type serveSpec struct {
	families []string // one resident graph per family
	n, tinyN int
	algos    []algoEps
	// halfGraphBudget sets the store budget to half the graphs' bytes.
	halfGraphBudget bool
	cacheBudget     int64 // certified-solution cache bytes; 0 = unlimited
	// prewarm requests every key once during setup.
	prewarm bool
	// zipf is the exponent of the Zipf key popularity; 0 asks every key
	// equally often (see schedule.entry).
	zipf float64
	// repeatEvery > 0 makes every repeatEvery-th request ask for the
	// previous request's key again.
	repeatEvery int
	minOps      int
}

// algoEps is one algorithm family and the eps values asked of it.
type algoEps struct {
	algo string
	eps  []float64
}

// serveHot keeps every request on the cache-hit path: a few keys, all
// pre-warmed, asked with a skewed (Zipf) popularity.
var serveHot = &serveSpec{
	families: []string{"uforest", "ba", "gridx"}, n: 100_000, tinyN: 400,
	algos:       []algoEps{{"arbmds", []float64{0.5, 0.25}}, {"mcds", []float64{0.5, 0.25}}},
	cacheBudget: 64 << 20, prewarm: true, zipf: 1.1, minOps: 1000,
}

// serveChurn keeps the cache and the graph store evicting: four
// topologies, both families and twelve eps values each make 96 keys asked
// evenly, more than the 1 MiB cache holds, over graphs of which the store
// holds about half; every fifth request repeats its predecessor's key, so
// identical requests meet in flight and coalesce.
var serveChurn = &serveSpec{
	families: []string{"uforest", "ba", "gridx", "adag"}, n: 20_000, tinyN: 300,
	algos: []algoEps{
		{"arbmds", churnEps},
		{"mcds", churnEps},
	},
	halfGraphBudget: true, cacheBudget: 1 << 20, repeatEvery: 5, minOps: 50,
}

var churnEps = []float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75}

type serveKey struct {
	graph int
	fam   family.Family
	eps   float64
}

type serveInstance struct {
	e      *env
	spec   *serveSpec
	sched  schedule
	paths  []string
	edges  []int64
	keys   []serveKey
	urls   [][2]string // per key: /solve, /certify
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *http.Client
	bufs   [closedLoopClients]bytes.Buffer
	extra  atomic.Int64 // request ids outside the schedule
	stats0 serve.Stats  // at the start of the window

	mu       sync.Mutex
	first    map[int][]byte // 2·key+endpoint → first body served
	firstCRC map[int]uint32
	mcdsMiss []float64 // latency of mcds requests that ran the engine, ms
	// cold counts window requests a pre-warmed workload served from
	// anything but the cache.
	cold   int
	warmed bool
}

// Endpoints, as indexes into serveInstance.urls.
const (
	epSolve   = 0
	epCertify = 1
)

func setupServe(spec *serveSpec) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		s := &serveInstance{e: e, spec: spec, first: map[int][]byte{}, firstCRC: map[int]uint32{}}
		s.extra.Store(1 << 40)
		n := spec.n
		if e.tiny {
			n = spec.tinyN
		}
		graphs := map[string]string{}
		var names []string
		var total int64
		for i, fam := range spec.families {
			// Sizes differ by one node per graph: mdsd keys its cache by
			// graph.Fingerprint, which hashes n, m and the IDs but not the
			// edges, so two graphs of one size and edge count (uforest and
			// ba at 10⁵ nodes, say) would share cache entries.
			g, err := graph.Named(fam, n+i, subseed(e.seed, streamGraph, uint64(i)))
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s-%d", fam, i)
			path := filepath.Join(e.dir, name+".csrg")
			if err := g.WriteCSRGFile(path); err != nil {
				return nil, err
			}
			graphs[name] = path
			names = append(names, name)
			s.paths = append(s.paths, path)
			s.edges = append(s.edges, int64(g.M()))
			total += g.Bytes()
		}
		for gi := range spec.families {
			for _, a := range spec.algos {
				fam, err := family.Get(a.algo)
				if err != nil {
					return nil, err
				}
				eps := a.eps
				if e.tiny {
					eps = eps[:tinyEps]
				}
				for _, ep := range eps {
					s.keys = append(s.keys, serveKey{graph: gi, fam: fam, eps: ep})
				}
			}
		}
		s.sched = newSchedule(e.seed, len(s.keys), spec.zipf, spec.repeatEvery)

		cfg := serve.Config{Graphs: graphs, CacheBudget: spec.cacheBudget, Engine: congest.EngineStepped}
		if spec.halfGraphBudget {
			cfg.GraphBudget = total / 2
		}
		if e.eng != nil {
			cfg.RunSink = e.eng
		}
		s.srv = serve.New(cfg)
		var h http.Handler = s.srv
		if e.tr != nil {
			h = tracedHandler{h: s.srv, tr: e.tr}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.hs = &http.Server{Handler: h}
		s.served = make(chan error, 1)
		go func() { s.served <- s.hs.Serve(ln) }()
		s.tr = &http.Transport{MaxIdleConnsPerHost: closedLoopClients, MaxConnsPerHost: closedLoopClients, DisableCompression: true}
		s.client = &http.Client{Transport: s.tr}
		base := "http://" + ln.Addr().String()
		for _, k := range s.keys {
			q := "?graph=" + names[k.graph] + "&algo=" + k.fam.Name + "&eps=" + strconv.FormatFloat(k.eps, 'g', -1, 64)
			s.urls = append(s.urls, [2]string{base + "/solve" + q, base + "/certify" + q})
		}
		if spec.prewarm {
			for k := range s.keys {
				for _, ep := range []int{epSolve, epCertify} {
					if r := s.do(k, ep, 0, s.extra.Add(1)); r.failed || r.wrong != nil {
						s.close()
						return nil, fmt.Errorf("pre-warming %s: failed=%v %v", s.urls[k][ep], r.failed, r.wrong)
					}
				}
			}
		}
		return s, nil
	}
}

func (s *serveInstance) clients() int { return closedLoopClients }

func (s *serveInstance) minOps() int {
	if s.e.tiny {
		return 20
	}
	return s.spec.minOps
}

func (s *serveInstance) warm() error {
	s.stats0 = s.srv.Stats()
	s.warmed = true
	return nil
}

func (s *serveInstance) op(i, lane int) opResult {
	k, solve := s.sched.entry(i)
	ep := epCertify
	if solve {
		ep = epSolve
	}
	return s.do(k, ep, lane, int64(i)+1)
}

// do sends one request and reads the whole reply; the latency covers the
// round trip. The body is then checked against the first body served for
// that key and endpoint.
func (s *serveInstance) do(k, ep, lane int, reqID int64) opResult {
	req, err := http.NewRequest(http.MethodGet, s.urls[k][ep], nil)
	if err != nil {
		return opResult{failed: true}
	}
	cs := s.e.tr.start("client.request", 0, reqID, lane)
	if s.e.tr != nil {
		req.Header.Set(hdrReq, strconv.FormatInt(reqID, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(cs.id(), 10))
		req.Header.Set(hdrLane, strconv.Itoa(lane))
	}
	buf := &s.bufs[lane]
	buf.Reset()
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	cs.end()
	if err != nil {
		return opResult{lat: lat, failed: true}
	}
	r := opResult{lat: lat}
	switch resp.Header.Get("X-Mdsd-Cache") {
	case "hit":
		r.state = stateHit
	case "miss":
		r.state = stateMiss
	case "coalesced":
		r.state = stateCoalesced
	}
	if resp.StatusCode != http.StatusOK {
		r.failed = true
		return r
	}
	r.wrong = s.remember(k, ep, buf.Bytes(), r.state, lat)
	return r
}

// remember checks body against the first body served for (key, endpoint)
// — the cache renders each answer once, and engine runs are deterministic,
// so every later body must be byte-identical — or keeps it as the first.
func (s *serveInstance) remember(k, ep int, body []byte, state cacheState, lat time.Duration) error {
	crc := crc32.ChecksumIEEE(body)
	id := 2*k + ep
	s.mu.Lock()
	defer s.mu.Unlock()
	if state == stateMiss && s.keys[k].fam.Name == "mcds" {
		s.mcdsMiss = append(s.mcdsMiss, float64(lat)/1e6)
	}
	if s.spec.prewarm && s.warmed && state != stateHit {
		s.cold++
	}
	if first, ok := s.firstCRC[id]; ok {
		if crc != first {
			return fmt.Errorf("%s: body crc %08x differs from the first one served (%08x)", s.urls[k][ep], crc, first)
		}
		return nil
	}
	s.firstCRC[id] = crc
	s.first[id] = append([]byte(nil), body...)
	return nil
}

func (s *serveInstance) layers() map[string]float64 {
	st := s.srv.Stats()
	m := map[string]float64{
		"graph.loads":           float64(int64(st.GraphsResident) + st.GraphEvictions),
		"serve.cache_evictions": float64(st.CacheEvictions),
		"serve.graph_evictions": float64(st.GraphEvictions),
	}
	reqs := (st.CacheHits + st.CacheMisses + st.CoalescedHits) - (s.stats0.CacheHits + s.stats0.CacheMisses + s.stats0.CoalescedHits)
	if reqs > 0 {
		m["serve.runs_per_request"] = float64(st.Runs-s.stats0.Runs) / float64(reqs)
	}
	s.mu.Lock()
	if len(s.mcdsMiss) > 0 {
		m["mcds.solve_ms"] = percentile(s.mcdsMiss, 50)
	}
	s.mu.Unlock()
	return m
}

// solveBody and certifyBody mirror mdsd's /solve and /certify replies.
type solveBody struct {
	certifyBody
	Notes []string `json:"notes"`
	Set   []int    `json:"set"`
}

type certifyBody struct {
	Graph       string `json:"graph"`
	Algo        string `json:"algo"`
	Params      string `json:"params"`
	N           int    `json:"n"`
	Rounds      int    `json:"rounds"`
	SetSize     int    `json:"set_size"`
	Certificate string `json:"certificate"`
	Passed      bool   `json:"passed"`
}

// gateGraph is the harness's own copy of one served graph and what the
// checks need from it.
type gateGraph struct {
	g      *graph.Graph
	closer io.Closer
	fp     string
	delta  int
	lb     float64
	diam   int
}

// gate re-verifies the first /solve body of every key against the
// harness's own copy of the graph, fetching it now for keys the window
// never asked /solve for, and checks each key's /certify body against it.
// The exact metrics sum and maximize over every key of the workload, so
// they do not depend on how many requests the window sent.
func (s *serveInstance) gate() (gateResult, error) {
	var res gateResult
	if s.cold > 0 {
		return res, fmt.Errorf("%d requests after the pre-warm were not cache hits", s.cold)
	}
	graphs := make([]*gateGraph, len(s.paths))
	defer func() {
		for _, gg := range graphs {
			if gg != nil {
				gg.closer.Close()
			}
		}
	}()
	for gi, path := range s.paths {
		ls := s.e.tr.start("graph.Load", 0, 0, 0)
		g, closer, err := graph.Load(path)
		ls.endUnits(s.edges[gi])
		if err != nil {
			return res, err
		}
		gg := &gateGraph{g: g, closer: closer, fp: fmt.Sprintf("%08x", graph.Fingerprint(g)), delta: g.MaxDegree()}
		graphs[gi] = gg
		lbs := s.e.tr.start("verify.DualPackingLB", 0, 0, 0)
		gg.lb = max(verify.DualPackingLB(g), 1)
		lbs.end()
		es := s.e.tr.start("graph.Eccentricity", 0, 0, 0)
		gg.diam = 2*g.Eccentricity(0) + 2 // mdsd's default bound for orientation-phase families
		es.end()
	}
	h := crc32.NewIEEE()
	for k, key := range s.keys {
		if s.first[2*k+epSolve] == nil {
			if r := s.do(k, epSolve, 0, s.extra.Add(1)); r.failed || r.wrong != nil {
				return res, fmt.Errorf("%s: failed=%v %v", s.urls[k][epSolve], r.failed, r.wrong)
			}
		}
		var v solveBody
		if err := json.Unmarshal(s.first[2*k+epSolve], &v); err != nil {
			return res, fmt.Errorf("%s: %w", s.urls[k][epSolve], err)
		}
		if err := s.check(key, graphs[key.graph], &v); err != nil {
			return res, fmt.Errorf("%s: %w", s.urls[k][epSolve], err)
		}
		if body := s.first[2*k+epCertify]; body != nil {
			var c certifyBody
			if err := json.Unmarshal(body, &c); err != nil {
				return res, fmt.Errorf("%s: %w", s.urls[k][epCertify], err)
			}
			if c != v.certifyBody {
				return res, fmt.Errorf("%s: reply disagrees with /solve's", s.urls[k][epCertify])
			}
		}
		res.roundsTotal += v.Rounds
		res.approxRatioMax = max(res.approxRatioMax, float64(v.SetSize)/graphs[key.graph].lb)
		h.Write(binary.LittleEndian.AppendUint32(nil, s.firstCRC[2*k+epSolve]))
	}
	res.digest = fmt.Sprintf("%08x", h.Sum32())
	return res, nil
}

// check verifies one /solve reply: its fields describe this key and graph,
// the harness's own certificate of the set equals the one served and
// passes, and the rounds are within the family's claimed bound.
func (s *serveInstance) check(key serveKey, gg *gateGraph, v *solveBody) error {
	want := key.fam.Canon(family.Params{Eps: key.eps, Sim: congest.EngineStepped, DiamBound: gg.diam}).Key()
	switch {
	case !v.Passed:
		return fmt.Errorf("certificate did not pass: %s", v.Certificate)
	case v.Algo != key.fam.Name || v.Params != want || v.Graph != gg.fp || v.N != gg.g.N() || v.SetSize != len(v.Set):
		return fmt.Errorf("reply (%s, %s, graph %s, n=%d, |S|=%d of %d) does not describe the request (%s, %s, graph %s, n=%d)",
			v.Algo, v.Params, v.Graph, v.N, v.SetSize, len(v.Set), key.fam.Name, want, gg.fp, gg.g.N())
	}
	var cert string
	var ok bool
	var roundBound int
	switch key.fam.Name {
	case "arbmds":
		cs := s.e.tr.start("verify.CertifyArb", 0, 0, 0)
		c := verify.CertifyArb(gg.g, v.Set, key.eps)
		cs.end()
		cert, ok, roundBound = c.String(), c.OK, verify.RoundBoundArb(gg.delta, key.eps)
	case "mcds":
		if err := verify.CheckCDS(gg.g, v.Set); err != nil {
			return err
		}
		cs := s.e.tr.start("verify.CertifyCDS", 0, 0, 0)
		c := verify.CertifyCDS(gg.g, v.Set, verify.MCDSClaimBound(gg.delta, key.eps))
		cs.end()
		cert, ok, roundBound = c.String(), c.OK, verify.RoundBoundMCDS(gg.delta, key.eps, gg.diam)
	default:
		return fmt.Errorf("no harness check for family %s", key.fam.Name)
	}
	if !ok || cert != v.Certificate {
		return fmt.Errorf("served certificate %q, harness computed %q", v.Certificate, cert)
	}
	if v.Rounds > roundBound {
		return fmt.Errorf("%d rounds exceed the claimed bound %d", v.Rounds, roundBound)
	}
	return nil
}

func (s *serveInstance) close() error {
	err := s.hs.Close()
	<-s.served
	s.tr.CloseIdleConnections()
	return err
}

// tracedHandler times Server.ServeHTTP for the traced pass, as a child of
// the client span named in the request headers.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	lane, _ := strconv.Atoi(r.Header.Get(hdrLane))
	sp := t.tr.start("serve.ServeHTTP", parent, req, lane)
	t.h.ServeHTTP(w, r)
	sp.end()
}

// Seed streams: every random choice the benchmark makes is a hash of the
// workload seed, a stream and an index, so inputs and schedules depend on
// the seed alone.
const (
	streamGraph = iota + 1
	streamKey
	streamEndpoint
)

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subseed(seed, stream, i uint64) uint64 { return mix(mix(seed^stream<<56) ^ i) }

// unit is a uniform draw in [0, 1).
func unit(seed, stream uint64, i int) float64 {
	return float64(subseed(seed, stream, uint64(i))>>11) / (1 << 53)
}

// schedule is a serving workload's request sequence: entry i is a pure
// function of the seed and i, so any prefix is the same on every run.
type schedule struct {
	seed uint64
	keys int
	// cdf is the cumulative Zipf popularity of the keys in key order (the
	// first key is the most popular, whatever the seed, so the mix of reply
	// sizes is the same on every seed); nil spreads requests evenly.
	cdf []float64
	// repeatEvery > 0 makes every repeatEvery-th entry ask for the previous
	// entry's key again.
	repeatEvery int
}

func newSchedule(seed uint64, keys int, zipf float64, repeatEvery int) schedule {
	s := schedule{seed: seed, keys: keys, repeatEvery: repeatEvery}
	if zipf > 0 {
		var total float64
		for r := 0; r < keys; r++ {
			total += 1 / math.Pow(float64(r+1), zipf)
			s.cdf = append(s.cdf, total)
		}
		for r := range s.cdf {
			s.cdf[r] /= total
		}
	}
	return s
}

// entry returns the key and endpoint of request i; each request asks
// /solve or /certify with even odds. Without Zipf popularity the fresh
// entries walk through the keys in cycles, each cycle a new seeded
// permutation: every key is asked equally often in any window, so the hit
// ratio — and with it the latency mix — varies little between runs.
func (s schedule) entry(i int) (key int, solve bool) {
	solve = unit(s.seed, streamEndpoint, i) < 0.5
	fresh := i
	if p := s.repeatEvery; p > 0 {
		if i%p == p-1 {
			i-- // a repeat; the entry before it never is one
		}
		fresh = i - (i+1)/p
	}
	if s.cdf != nil {
		return min(sort.SearchFloat64s(s.cdf, unit(s.seed, streamKey, fresh)), s.keys-1), solve
	}
	cycle, pos := fresh/s.keys, fresh%s.keys
	perm := make([]int, s.keys)
	for j := range perm {
		perm[j] = j
	}
	for j := s.keys - 1; j > 0; j-- {
		r := int(subseed(s.seed, streamKey, uint64(cycle)<<32|uint64(j)) % uint64(j+1))
		perm[j], perm[r] = perm[r], perm[j]
	}
	return perm[pos], solve
}
