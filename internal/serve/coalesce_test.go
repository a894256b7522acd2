package serve

// Coalescing proof: N concurrent identical requests observe exactly one
// engine run. Proven two independent ways — a gated synthetic family held
// in flight until every follower has provably joined the leader's flight,
// and a real family where a counting obs.Sink observes how many engine
// runs the server actually performed — plus a distinct-params control
// showing different parameters never share a flight. The CI serve job runs
// this file under -race.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"congestds/internal/obs"
)

// concurrency is the request fan-in for the coalescing proofs; the issue
// pins ≥ 8.
const concurrency = 8

// fanIn fires n concurrent GETs against url and returns their statuses,
// cache states and bodies, index-aligned.
func fanIn(t *testing.T, url string, n int, ready func()) (statuses []int, states []string, bodies [][]byte) {
	t.Helper()
	statuses = make([]int, n)
	states = make([]string, n)
	bodies = make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			statuses[i] = resp.StatusCode
			states[i] = resp.Header.Get("X-Mdsd-Cache")
			bodies[i] = buf.Bytes()
		}(i)
	}
	if ready != nil {
		ready()
	}
	wg.Wait()
	return statuses, states, bodies
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoalescingGatedExactlyOneRun(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}})
	entered, release := armGate(t, concurrency)

	url := ts.URL + "/solve?graph=g&algo=" + testFamPrefix + "gate"
	statuses, states, bodies := fanIn(t, url, concurrency, func() {
		// One leader is inside Solve, blocked on the gate...
		<-entered
		// ...and every other request is provably blocked on its flight.
		waitFor(t, "followers to join the flight", func() bool {
			return s.flight.waiting() == concurrency-1
		})
		close(release)
	})

	miss, coalesced := 0, 0
	for i := range statuses {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		switch states[i] {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("request %d: X-Mdsd-Cache = %q", i, states[i])
		}
	}
	if miss != 1 || coalesced != concurrency-1 {
		t.Errorf("cache states: %d miss, %d coalesced; want 1 and %d", miss, coalesced, concurrency-1)
	}

	st := s.Stats()
	if st.Runs != 1 {
		t.Errorf("Runs = %d, want exactly 1 engine run for %d identical requests", st.Runs, concurrency)
	}
	if st.CoalescedHits != concurrency-1 {
		t.Errorf("CoalescedHits = %d, want %d", st.CoalescedHits, concurrency-1)
	}
	if st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Errorf("cache misses/hits = %d/%d, want 1/0", st.CacheMisses, st.CacheHits)
	}

	// No second entry into Solve ever happened.
	select {
	case <-entered:
		t.Error("a second engine run entered the gate")
	default:
	}
}

// runCounter counts engine runs by watching for each run's first round
// record (Seg 0, Round 1) — a signal only a real engine run emits.
type runCounter struct {
	mu   sync.Mutex
	runs int
}

func (c *runCounter) Round(r obs.RoundRec) {
	if r.Seg == 0 && r.Round == 1 {
		c.mu.Lock()
		c.runs++
		c.mu.Unlock()
	}
}
func (c *runCounter) Event(obs.EventRec) {}
func (c *runCounter) Close() error       { return nil }

func (c *runCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

func TestCoalescingRealFamilySingleEngineRun(t *testing.T) {
	dir := t.TempDir()
	path := writeCSRG(t, dir, "g.csrg", testGraph())
	counter := &runCounter{}
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}, RunSink: counter})

	url := ts.URL + "/solve?graph=g&algo=arbmds"
	statuses, _, bodies := fanIn(t, url, concurrency, nil)
	for i := range statuses {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	// Whether each request coalesced onto the leader's flight or landed
	// after it as a cache hit, the engine must have run exactly once.
	if got := counter.count(); got != 1 {
		t.Errorf("engine ran %d times for %d identical requests, want 1", got, concurrency)
	}
	st := s.Stats()
	if st.Runs != 1 {
		t.Errorf("Runs = %d, want 1", st.Runs)
	}
	if st.CoalescedHits+st.CacheHits != concurrency-1 {
		t.Errorf("coalesced %d + cache hits %d ≠ %d followers",
			st.CoalescedHits, st.CacheHits, concurrency-1)
	}
}

// TestCoalescingLeaderPanic: a flight leader that panics releases its
// key. The leader and every coalesced follower get a 500 of class
// "program", nothing is cached, the next request for the key runs afresh
// instead of waiting on the dead flight, and no graph stays pinned.
func TestCoalescingLeaderPanic(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	registerTestFamilies()
	s := New(Config{Graphs: map[string]string{"g": path}})
	// Not closed on the timeout path: Close waits for the hung handlers.
	ts := httptest.NewServer(s)
	entered, release := armGate(t, concurrency+1)

	url := ts.URL + "/solve?graph=g&algo=" + testFamPrefix + "panic"
	// await fires n concurrent requests, runs ready on the test goroutine,
	// and fails the test unless every request returns a 500 of class
	// program in time.
	await := func(what string, n int, ready func()) {
		t.Helper()
		type result struct {
			statuses []int
			bodies   [][]byte
		}
		done := make(chan result, 1)
		go func() {
			statuses, _, bodies := fanIn(t, url, n, nil)
			done <- result{statuses, bodies}
		}()
		if ready != nil {
			ready()
		}
		select {
		case r := <-done:
			for i, status := range r.statuses {
				if status != http.StatusInternalServerError || !bytes.Contains(r.bodies[i], []byte(`"sentinel":"program"`)) {
					t.Errorf("%s, request %d: status %d, body %s; want a 500 of class program",
						what, i, status, r.bodies[i])
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s: the panicked flight still holds its key", what)
		}
	}
	await("the leader and its followers", concurrency, func() {
		<-entered
		waitFor(t, "followers to join the flight", func() bool {
			return s.flight.waiting() == concurrency-1
		})
		close(release)
	})
	await("the next request", 1, nil)
	ts.Close()

	st := s.Stats()
	if st.CacheEntries != 0 {
		t.Errorf("a panicked run was cached: %d entries", st.CacheEntries)
	}
	for _, r := range s.store.Residents() {
		if r.Pinned {
			t.Errorf("graph %s still pinned after every request returned", r.Name)
		}
	}
}

func TestDistinctParamsDoNotCoalesce(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}})
	entered, release := armGate(t, 2)

	base := ts.URL + "/solve?graph=g&algo=" + testFamPrefix + "gate&eps="
	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	for i, eps := range []string{"0.3", "0.7"} {
		wg.Add(1)
		go func(i int, eps string) {
			defer wg.Done()
			_, _, _, bodies[i] = get(t, base+eps)
		}(i, eps)
	}
	// Both requests enter Solve concurrently: neither waited on the other.
	<-entered
	<-entered
	close(release)
	wg.Wait()

	if bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("distinct eps produced identical bodies: %s", bodies[0])
	}
	st := s.Stats()
	if st.Runs != 2 || st.CoalescedHits != 0 {
		t.Errorf("Runs/CoalescedHits = %d/%d, want 2/0 — distinct params must not share a flight",
			st.Runs, st.CoalescedHits)
	}
}
