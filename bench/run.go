package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"congestds/internal/testmem"
)

// workload is one set of inputs and one traffic shape.
type workload struct {
	name string
	why  string
	// setup generates the inputs from e.seed under e.dir and starts the
	// system under test.
	setup func(e *env) (instance, error)
}

// env is what a workload's setup receives.
type env struct {
	seed uint64
	dir  string
	tiny bool        // test-sized inputs, same code paths
	tr   *tracer     // nil in the untraced pass
	eng  *engineSink // nil in the untraced pass
}

// instance is a workload after setup.
type instance interface {
	// clients is the number of closed-loop clients issuing ops.
	clients() int
	// minOps is the least number of timed ops: enough to touch every
	// distinct input at least once.
	minOps() int
	// warm runs the untimed warm-up; an error fails the gate.
	warm() error
	// op runs schedule entry i on client lane and reports its latency;
	// checks of the answer happen outside the latency.
	op(i, lane int) opResult
	// layers returns the workload's own per-layer counts, read right after
	// the timed window.
	layers() map[string]float64
	// gate checks every output after the window and computes the exact
	// metrics. An error is a wrong answer.
	gate() (gateResult, error)
	close() error
}

type opResult struct {
	lat    time.Duration
	failed bool  // a typed failure: a non-200 status or an error return
	wrong  error // a wrong answer
	state  cacheState
}

// cacheState is mdsd's X-Mdsd-Cache value of a serve request. A byte, not
// the header's string: the window keeps every request's state, and 10⁵
// retained strings would show in the workload's peak RSS.
type cacheState uint8

const (
	stateNone cacheState = iota // a batch op
	stateHit
	stateMiss
	stateCoalesced
)

var stateNames = [...]string{stateHit: "hit", stateMiss: "miss", stateCoalesced: "coalesced"}

type gateResult struct {
	approxRatioMax float64
	roundsTotal    int
	digest         string
}

// pass is one untraced or traced execution of a workload.
type pass struct {
	setupS    []float64
	latMs     []float64    // per successful op
	states    []cacheState // per successful op, in latMs order
	attempted int
	failed    int
	elapsed   time.Duration
	wrong     []error
	gate      gateResult
	layers    map[string]float64
	spans     []span
	peakRSS   int64
}

// An untraced pass sets the workload up at least setupReps times, and
// keeps going while the set-ups together took less than setupBudget, up to
// maxSetupReps; setup_s is the median. Cheap set-ups take milliseconds, so
// they need more repetitions for a steady median. The traced pass sets up
// once.
const (
	setupReps    = 3
	maxSetupReps = 15
	setupBudget  = time.Second
)

// syncFiles flushes the files a set-up wrote to disk, so their writeback
// happens inside set-up instead of under the timed window.
func syncFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS accounting (VmHWM) at the
// current RSS. Where /proc does not offer it, the peak covers the whole
// process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runPass sets w up, warms it, runs ops for window (at least minOps), and
// gates the outputs. An error means the pass could not run at all; wrong
// answers are collected in pass.wrong.
func runPass(w workload, seed uint64, window time.Duration, traced, tiny bool, workDir string) (*pass, error) {
	p := &pass{}
	e := &env{seed: seed, tiny: tiny}
	minReps, maxReps := setupReps, maxSetupReps
	if traced {
		minReps, maxReps = 1, 1
		e.tr = newTracer()
		e.eng = newEngineSink(e.tr)
	}
	defer os.RemoveAll(workDir)

	var inst instance
	var spent time.Duration
	for rep := 0; ; rep++ {
		// Each set-up writes its own files: an earlier instance may still
		// map the previous ones.
		e.dir = filepath.Join(workDir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		next, err := w.setup(e)
		if err == nil {
			err = syncFiles(e.dir)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		spent += time.Since(t0)
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if rep+1 >= maxReps || (rep+1 >= minReps && spent >= setupBudget) {
			inst = next
			break
		}
		if err := next.close(); err != nil {
			return nil, fmt.Errorf("%s: closing set-up %d: %w", w.name, rep, err)
		}
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
		runtime.GC() // each set-up starts from a collected heap
	}
	defer inst.close()
	// peak_rss_mib covers the warm-up and the window — the system under
	// test — not the generators of the repeated set-ups or the gate.
	debug.FreeOSMemory()
	resetPeakRSS()
	if err := inst.warm(); err != nil {
		p.wrong = append(p.wrong, fmt.Errorf("warm-up: %w", err))
	}
	runtime.GC()

	p.window(inst, window)
	p.peakRSS = testmem.ReadVmHWM()
	p.layers = inst.layers()
	g, err := inst.gate()
	if err != nil {
		p.wrong = append(p.wrong, err)
	}
	p.gate = g
	if traced {
		p.spans = e.tr.snapshot()
		for k, v := range e.eng.layers() {
			p.layers[k] = v
		}
	}
	return p, nil
}

// window runs the timed ops: each client takes the next schedule index
// until minOps are done and the next op would end past the window. A
// failed op counts in attempted and failed only: its latency would let a
// change that fails fast read as faster.
func (p *pass) window(inst instance, window time.Duration) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		busy  time.Duration
		start = time.Now()
	)
	for lane := 0; lane < inst.clients(); lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= inst.minOps() {
					mu.Lock()
					mean := busy / time.Duration(max(p.attempted, 1))
					mu.Unlock()
					if time.Since(start)+mean > window {
						return
					}
				}
				r := inst.op(i, lane)
				mu.Lock()
				busy += r.lat
				p.attempted++
				if r.failed {
					p.failed++
				} else {
					p.latMs = append(p.latMs, float64(r.lat)/1e6)
					p.states = append(p.states, r.state)
				}
				if r.wrong != nil && len(p.wrong) < 10 {
					p.wrong = append(p.wrong, r.wrong)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
}

// endToEnd returns the pass's end-to-end metrics.
func (p *pass) endToEnd() map[string]float64 {
	_, setup, _ := quartiles(p.setupS)
	return map[string]float64{
		"setup_s":          setup,
		"request_p50_ms":   percentile(p.latMs, 50),
		"throughput_ops_s": float64(p.attempted-p.failed) / p.elapsed.Seconds(),
		"peak_rss_mib":     float64(p.peakRSS) / (1 << 20),
		"approx_ratio_max": p.gate.approxRatioMax,
		"rounds_total":     float64(p.gate.roundsTotal),
	}
}

// perLayer returns a traced pass's per-layer metrics: the instance's and
// engine sink's counts plus what the spans give, and from the untraced
// pass of the same run the request p99 and the p50 that obs.overhead_pct
// compares against.
func (p *pass) perLayer(untraced *pass) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, v := range p.layers {
		m[k] = v
	}
	stats := spanStats(p.spans)
	ms := func(name string) float64 {
		if cs := stats[name]; cs != nil {
			return cs.P50 / 1e6
		}
		return 0
	}
	var loadNs, edges float64
	var certify, handler, client []float64
	for _, s := range p.spans {
		switch s.Name {
		case "graph.Load":
			loadNs += float64(s.dur())
			edges += float64(s.Units)
		case "verify.Certify", "verify.CertifyArb", "verify.CertifyCDS":
			certify = append(certify, float64(s.dur()))
		case "serve.ServeHTTP":
			handler = append(handler, float64(s.dur()))
		case "client.request":
			client = append(client, float64(s.dur()))
		}
	}
	m["graph.load_ms"] = ms("graph.Load")
	if edges > 0 {
		m["graph.load_ns_per_edge"] = loadNs / edges
	}
	m["verify.certify_ms"] = percentile(certify, 50) / 1e6
	m["verify.dual_lb_ms"] = ms("verify.DualPackingLB")
	if sum(client) > 0 {
		m["serve.handler_pct"] = 100 * sum(handler) / sum(client)
	}
	var hits, coalesced float64
	for _, s := range p.states {
		switch s {
		case stateHit:
			hits++
		case stateCoalesced:
			coalesced++
		}
	}
	if len(p.states) > 0 && p.states[0] != stateNone {
		m["serve.cache_hit_ratio"] = hits / float64(len(p.states))
		m["serve.coalesce_ratio"] = coalesced / float64(len(p.states))
	}
	m["request_p99_ms"] = percentile(untraced.latMs, 99)
	if p50 := percentile(untraced.latMs, 50); p50 > 0 {
		m["obs.overhead_pct"] = 100 * (percentile(p.latMs, 50)/p50 - 1)
	}
	p.extraLayers(m, stats)
	return m
}

// extraLayers adds the per-layer timings that only some workloads
// exercise; the others keep the 0 perLayer set.
func (p *pass) extraLayers(m map[string]float64, stats map[string]*callStats) {
	if cs := stats["graph.Eccentricity"]; cs != nil {
		m["graph.eccentricity_ms"] = cs.P50 / 1e6
	}
	if engine, busy := m["congest.engine_ms"], m["congest.sweep_busy_pct"]/100; busy > 0 {
		m["congest.sweep_busy_ms"] = engine * busy * float64(runtime.GOMAXPROCS(0))
		// Sweep stamps are taken on receipt, so busy can read a hair over
		// 100 % when the workers' sweeps fill the rounds.
		m["congest.delivery_ms"] = engine * max(1-busy, 0)
	}
	if cs := stats["mds.Solve"]; cs != nil {
		m["mds.host_ms"] = cs.P50Se / 1e6
		m["mds.part1_ms"] = (cs.P50 - cs.P50Se) / 1e6
	}
	if cs, cert := stats["family.Solve"], stats["verify.CertifyArb"]; cs != nil && cert != nil {
		// family.Solve certifies inside the call; the gate's own CertifyArb
		// of the same set estimates that share of its self time.
		m["arbmds.host_ms"] = (cs.P50Se - cert.P50) / 1e6
	}
	if cs := stats["serve.ServeHTTP"]; cs != nil {
		m["serve.handler_us"] = cs.P50 / 1e3
		m["serve.transport_us"] = stats["client.request"].P50Se / 1e3
	}
	byState := map[cacheState][]float64{}
	for i, s := range p.states {
		byState[s] = append(byState[s], p.latMs[i])
	}
	for _, s := range []cacheState{stateHit, stateMiss, stateCoalesced} {
		if len(byState[s]) > 0 {
			m["serve."+stateNames[s]+"_p50_ms"] = percentile(byState[s], 50)
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
