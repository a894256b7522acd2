package serve

// Cache correctness: the fingerprint key is representation-independent
// (heap text load and zero-copy .csrg mapping of the same graph share one
// cache entry), any semantic parameter change busts the cache while
// default-vs-explicit spellings of the same parameters collide, and both
// LRUs (result cache and graph store) honor their byte budgets.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"congestds/internal/graph"
)

func TestHeapAndMmapShareOneCacheEntry(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	txt := writeText(t, dir, "g.txt", g)
	csrg := writeCSRG(t, dir, "g.csrg", g)
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"heap": txt, "mmap": csrg}})

	_, state1, _, body1 := get(t, ts.URL+"/solve?graph=heap&algo=arbmds")
	_, state2, _, body2 := get(t, ts.URL+"/solve?graph=mmap&algo=arbmds")
	if state1 != "miss" || state2 != "hit" {
		t.Errorf("cache states = %q, %q; want miss then hit — same content, same key", state1, state2)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("heap and mmap bodies differ:\n%s\nvs\n%s", body1, body2)
	}
	st := s.Stats()
	if st.Runs != 1 || st.CacheHits != 1 {
		t.Errorf("Runs/CacheHits = %d/%d, want 1/1", st.Runs, st.CacheHits)
	}
	// Both representations are resident and agree on the fingerprint.
	res := s.store.Residents()
	if len(res) != 2 || res[0].Fingerprint != res[1].Fingerprint {
		t.Fatalf("residents = %+v, want two with equal fingerprints", res)
	}
	if res[0].Mapped == res[1].Mapped {
		t.Errorf("expected one mapped and one heap resident: %+v", res)
	}
}

// TestSameShapeGraphsDoNotShareCacheEntry: two graphs with equal n, m and
// IDs but different edges must get distinct fingerprints, so the second
// request is a fresh run, never the first graph's certified answer.
func TestSameShapeGraphsDoNotShareCacheEntry(t *testing.T) {
	dir := t.TempDir()
	// A path 0-1-…-9 closed into a cycle by 0-9, or bent back by 0-2.
	cycle, bent := graph.NewBuilder(10), graph.NewBuilder(10)
	for v := 0; v < 9; v++ {
		cycle.Add(v, v+1)
		bent.Add(v, v+1)
	}
	cycle.Add(0, 9)
	bent.Add(0, 2)
	a := writeCSRG(t, dir, "a.csrg", cycle.Graph())
	b := writeCSRG(t, dir, "b.csrg", bent.Graph())
	s, ts := newTestServer(t, Config{Graphs: map[string]string{"a": a, "b": b}})

	_, stateA, _, bodyA := get(t, ts.URL+"/solve?graph=a&algo=arbmds")
	_, stateB, _, bodyB := get(t, ts.URL+"/solve?graph=b&algo=arbmds")
	if stateA != "miss" || stateB != "miss" {
		t.Errorf("cache states = %q, %q; want miss then miss — different edges, different key", stateA, stateB)
	}
	if bytes.Equal(bodyA, bodyB) {
		t.Errorf("graphs with different edges got the same body:\n%s", bodyA)
	}
	if st := s.Stats(); st.Runs != 2 || st.CacheHits != 0 {
		t.Errorf("Runs/CacheHits = %d/%d, want 2/0", st.Runs, st.CacheHits)
	}
}

func TestStoreFingerprintMatchesAcrossRepresentations(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	txt := writeText(t, dir, "g.txt", g)
	csrg := writeCSRG(t, dir, "g.csrg", g)
	st := NewStore(map[string]string{"heap": txt, "mmap": csrg}, "", 0)

	heap, err := st.Acquire("heap")
	if err != nil {
		t.Fatal(err)
	}
	mmap, err := st.Acquire("mmap")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release(heap)
	defer st.Release(mmap)
	if heap.FP != mmap.FP {
		t.Errorf("fingerprints differ across representations: %08x vs %08x", heap.FP, mmap.FP)
	}
	if heap.FP != graph.Fingerprint(g) {
		t.Errorf("store fingerprint %08x ≠ direct fingerprint %08x", heap.FP, graph.Fingerprint(g))
	}
	if heap.Mapped || !mmap.Mapped {
		t.Errorf("Mapped flags wrong: heap=%v mmap=%v", heap.Mapped, mmap.Mapped)
	}
}

func TestCacheBustsOnAnyParamChange(t *testing.T) {
	dir := t.TempDir()
	path := writeText(t, dir, "g.txt", testGraph())
	_, ts := newTestServer(t, Config{Graphs: map[string]string{"g": path}})

	cases := []struct {
		name  string
		algo  string
		base  string // extra query for the priming request
		probe string // extra query for the probe request
		want  string // expected X-Mdsd-Cache on the probe
	}{
		// Any semantic parameter change busts the cache...
		{"eps busts", "arbmds", "", "&eps=0.25", "miss"},
		{"maxrounds busts", "arbmds", "", "&maxrounds=500", "miss"},
		{"diam busts (NeedsDiam family)", "mcds", "&diam=12", "&diam=14", "miss"},
		// ...while spellings the family treats identically collide.
		{"default eps collides", "arbmds", "", "&eps=0.5", "hit"},
		{"diam ignored (family without NeedsDiam)", "arbmds", "", "&diam=9", "hit"},
		{"zero maxrounds collides", "arbmds", "", "&maxrounds=0", "hit"},
		{"deadline is execution context, not key", "arbmds", "", "&deadline=1h", "hit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := ts.URL + "/solve?graph=g&algo=" + tc.algo + tc.base
			status, _, _, body := get(t, base)
			if status != http.StatusOK {
				t.Fatalf("prime: status %d, body %s", status, body)
			}
			status, state, _, body := get(t, ts.URL+"/solve?graph=g&algo="+tc.algo+tc.probe)
			if status != http.StatusOK {
				t.Fatalf("probe: status %d, body %s", status, body)
			}
			if state != tc.want {
				t.Errorf("probe X-Mdsd-Cache = %q, want %q", state, tc.want)
			}
		})
	}
}

// mkEntry builds a cache entry whose accounting cost is exactly size.
func mkEntry(key string, size int64) *entry {
	return &entry{key: key, solve: make([]byte, size), bytes: size}
}

func TestResultCacheLRUBudget(t *testing.T) {
	cases := []struct {
		name      string
		budget    int64
		ops       func(c *resultCache)
		wantKeys  []string
		wantBytes int64
		wantEvict int64
	}{
		{
			name:   "within budget keeps everything",
			budget: 100,
			ops: func(c *resultCache) {
				c.put(mkEntry("a", 40))
				c.put(mkEntry("b", 40))
			},
			wantKeys: []string{"a", "b"}, wantBytes: 80, wantEvict: 0,
		},
		{
			name:   "exceeding budget evicts oldest",
			budget: 100,
			ops: func(c *resultCache) {
				c.put(mkEntry("a", 40))
				c.put(mkEntry("b", 40))
				c.put(mkEntry("c", 40))
			},
			wantKeys: []string{"b", "c"}, wantBytes: 80, wantEvict: 1,
		},
		{
			name:   "get refreshes recency",
			budget: 100,
			ops: func(c *resultCache) {
				c.put(mkEntry("a", 40))
				c.put(mkEntry("b", 40))
				c.get("a") // a is now most recent; b becomes the victim
				c.put(mkEntry("c", 40))
			},
			wantKeys: []string{"a", "c"}, wantBytes: 80, wantEvict: 1,
		},
		{
			name:   "oversize entry is not cached",
			budget: 100,
			ops: func(c *resultCache) {
				c.put(mkEntry("a", 40))
				c.put(mkEntry("huge", 101))
			},
			wantKeys: []string{"a"}, wantBytes: 40, wantEvict: 0,
		},
		{
			name:   "replacing a key reaccounts bytes",
			budget: 100,
			ops: func(c *resultCache) {
				c.put(mkEntry("a", 40))
				c.put(mkEntry("a", 60))
			},
			wantKeys: []string{"a"}, wantBytes: 60, wantEvict: 0,
		},
		{
			name:   "one big entry can evict several",
			budget: 100,
			ops: func(c *resultCache) {
				c.put(mkEntry("a", 30))
				c.put(mkEntry("b", 30))
				c.put(mkEntry("c", 30))
				c.put(mkEntry("d", 90))
			},
			wantKeys: []string{"d"}, wantBytes: 90, wantEvict: 3,
		},
		{
			name:   "zero budget is unlimited",
			budget: 0,
			ops: func(c *resultCache) {
				for i := 0; i < 20; i++ {
					c.put(mkEntry(fmt.Sprintf("k%d", i), 1000))
				}
			},
			wantKeys: nil, wantBytes: 20000, wantEvict: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache(tc.budget)
			tc.ops(c)
			entries, bytes, evictions := c.usage()
			if bytes != tc.wantBytes || evictions != tc.wantEvict {
				t.Errorf("usage = %d bytes, %d evictions; want %d, %d",
					bytes, evictions, tc.wantBytes, tc.wantEvict)
			}
			if tc.wantKeys != nil {
				if entries != len(tc.wantKeys) {
					t.Errorf("entries = %d, want %d", entries, len(tc.wantKeys))
				}
				for _, k := range tc.wantKeys {
					if c.get(k) == nil {
						t.Errorf("key %q missing", k)
					}
				}
			}
			if tc.budget > 0 && bytes > tc.budget {
				t.Errorf("cache over budget: %d > %d", bytes, tc.budget)
			}
		})
	}
}

func TestStoreEvictionHonorsBudgetAndPins(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	perGraph := g.Bytes()
	paths := map[string]string{
		"a": writeCSRG(t, dir, "a.csrg", g),
		"b": writeCSRG(t, dir, "b.csrg", g),
		"c": writeCSRG(t, dir, "c.csrg", g),
	}
	// Budget fits two graphs but not three.
	st := NewStore(paths, "", 2*perGraph)

	a, err := st.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	// All three pinned: over budget, but nothing evictable — correctness
	// (no unmap under a run) beats the budget.
	if n, bytes, ev := st.Usage(); n != 3 || bytes != 3*perGraph || ev != 0 {
		t.Fatalf("pinned usage = %d/%d/%d, want 3 residents, no evictions", n, bytes, ev)
	}

	// Releasing the least recently used graph lets the store shed it.
	st.Release(a)
	if n, bytes, ev := st.Usage(); n != 2 || bytes != 2*perGraph || ev != 1 {
		t.Fatalf("after release: usage = %d/%d/%d, want 2 residents, 1 eviction", n, bytes, ev)
	}

	// The evicted mapping is gone; the pinned ones must still be readable.
	if b.G.N() != g.N() || c.G.Degree(0) != g.Degree(0) {
		t.Error("pinned residents unreadable after eviction")
	}

	// Re-acquiring the evicted graph reloads it and evicts the new LRU
	// victim once everything else is released.
	st.Release(b)
	st.Release(c)
	a2, err := st.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release(a2)
	if a2 == a {
		t.Error("evicted resident was resurrected instead of reloaded")
	}
	if n, bytes, _ := st.Usage(); n != 2 || bytes != 2*perGraph {
		t.Errorf("after reload: usage = %d residents %d bytes, want 2 residents within budget", n, bytes)
	}
}

func TestStoreResolveAndUnknownNames(t *testing.T) {
	dir := t.TempDir()
	writeText(t, dir, "under.txt", testGraph())
	reg := writeText(t, dir, "reg.txt", testGraph())

	t.Run("unknown without dir", func(t *testing.T) {
		st := NewStore(map[string]string{"g": reg}, "", 0)
		_, err := st.Acquire("nope")
		if !errors.Is(err, ErrUnknownGraph) {
			t.Errorf("err = %v, want ErrUnknownGraph", err)
		}
	})
	t.Run("dir-relative name loads", func(t *testing.T) {
		st := NewStore(nil, dir, 0)
		r, err := st.Acquire("under.txt")
		if err != nil {
			t.Fatal(err)
		}
		st.Release(r)
	})
	t.Run("traversal rejected", func(t *testing.T) {
		st := NewStore(nil, dir, 0)
		for _, name := range []string{"../escape.txt", "/etc/passwd", ""} {
			if _, err := st.Acquire(name); !errors.Is(err, ErrUnknownGraph) {
				t.Errorf("Acquire(%q) err = %v, want ErrUnknownGraph", name, err)
			}
		}
	})
	t.Run("dir-relative missing file", func(t *testing.T) {
		st := NewStore(nil, dir, 0)
		if _, err := st.Acquire("missing.txt"); err == nil {
			t.Error("expected an error for a missing file")
		}
	})
}

func TestResidentDiamBoundStable(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(map[string]string{"g": writeText(t, dir, "g.txt", graph.Path(10))}, "", 0)
	r, err := st.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release(r)
	want := 2*graph.Path(10).Eccentricity(0) + 2
	if got := r.DiamBound(); got != want {
		t.Errorf("DiamBound = %d, want %d", got, want)
	}
	if got := r.DiamBound(); got != want {
		t.Errorf("second DiamBound = %d, want %d (cached)", got, want)
	}
}
