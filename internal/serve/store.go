package serve

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"congestds/internal/graph"
)

// ErrUnknownGraph is wrapped by Store.Acquire when a name resolves to no
// registered path and no file under the store's directory root. Handlers
// map it to 404.
var ErrUnknownGraph = errors.New("serve: unknown graph")

// Resident is one graph held resident by a Store. The embedded closer owns
// the backing resources (the memory mapping for .csrg graphs); the Store
// closes it on eviction, which is why residents are refcounted — unmapping
// pages under a running engine would be a SIGBUS, so eviction skips pinned
// entries.
type Resident struct {
	Name   string
	Path   string
	G      *graph.Graph
	FP     uint32 // graph.Fingerprint of G
	Bytes  int64  // CSR residency cost (graph.Graph.Bytes)
	Mapped bool   // served zero-copy from a .csrg mapping

	closer io.Closer
	refs   int // pins held by in-flight requests; evictable only at 0
	elem   *list.Element

	diamOnce sync.Once
	diam     int
}

// DiamBound returns the host-side diameter bound graph.DiamBound used for
// orientation-phase families when the request does not carry one. Computed
// lazily (one BFS) and cached for the resident's lifetime: the graph is
// immutable, so the bound is too — and a cached bound means every request
// against this resident canonicalizes to the same Params.Key.
func (r *Resident) DiamBound() int {
	r.diamOnce.Do(func() { r.diam = r.G.DiamBound() })
	return r.diam
}

// Store keeps graphs resident behind an LRU with a byte budget. Names
// resolve through the preregistered name→path table first, then (when a
// directory root is configured) as relative paths under it. Loads happen
// under the store lock, so concurrent requests for the same cold graph
// load it exactly once — the graph-level analogue of the request
// singleflight.
type Store struct {
	mu        sync.Mutex
	budget    int64 // byte budget; 0 = unlimited
	used      int64
	graphs    map[string]string // preregistered name → path
	dir       string            // optional on-demand root
	res       map[string]*Resident
	order     *list.List // front = most recently used
	evictions int64
}

// NewStore creates a Store over the preregistered graphs and optional
// directory root, with the given resident byte budget (0 = unlimited).
func NewStore(graphs map[string]string, dir string, budget int64) *Store {
	g := make(map[string]string, len(graphs))
	for name, path := range graphs {
		g[name] = path
	}
	return &Store{
		budget: budget,
		graphs: g,
		dir:    dir,
		res:    map[string]*Resident{},
		order:  list.New(),
	}
}

// resolve maps a request name to a loadable path.
func (st *Store) resolve(name string) (string, error) {
	if path, ok := st.graphs[name]; ok {
		return path, nil
	}
	if st.dir != "" {
		if name == "" || filepath.IsAbs(name) || strings.Contains(name, "..") {
			return "", fmt.Errorf("%w: invalid name %q", ErrUnknownGraph, name)
		}
		return filepath.Join(st.dir, filepath.Clean(name)), nil
	}
	return "", fmt.Errorf("%w: %q (graphs: %s)", ErrUnknownGraph, name, strings.Join(st.names(), ", "))
}

// names returns the registered graph names, sorted. Callers hold st.mu.
func (st *Store) names() []string {
	names := make([]string, 0, len(st.graphs))
	for name := range st.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Acquire returns the named graph, loading it if it is not resident, and
// pins it against eviction until the matching Release. A load failure on a
// name that resolves to no path wraps ErrUnknownGraph.
func (st *Store) Acquire(name string) (*Resident, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if r, ok := st.res[name]; ok {
		st.order.MoveToFront(r.elem)
		r.refs++
		return r, nil
	}
	path, err := st.resolve(name)
	if err != nil {
		return nil, err
	}
	g, closer, err := graph.Load(path)
	if err != nil {
		return nil, fmt.Errorf("serve: loading graph %q from %s: %w", name, path, err)
	}
	r := &Resident{
		Name:   name,
		Path:   path,
		G:      g,
		FP:     graph.Fingerprint(g),
		Bytes:  g.Bytes(),
		Mapped: strings.HasSuffix(path, ".csrg"),
		closer: closer,
		refs:   1,
	}
	r.elem = st.order.PushFront(r)
	st.res[name] = r
	st.used += r.Bytes
	st.evict()
	return r, nil
}

// Release unpins a resident returned by Acquire and retries any eviction
// the pin was blocking.
func (st *Store) Release(r *Resident) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if r.refs > 0 {
		r.refs--
	}
	st.evict()
}

// evict closes least-recently-used unpinned residents until the store fits
// its budget. Pinned residents are skipped, so the store can transiently
// exceed the budget while every resident is in use — residency is a cache
// hint, correctness (no unmap under a run) wins. Callers hold st.mu.
func (st *Store) evict() {
	if st.budget <= 0 {
		return
	}
	for e := st.order.Back(); e != nil && st.used > st.budget; {
		prev := e.Prev()
		r := e.Value.(*Resident)
		if r.refs == 0 {
			st.order.Remove(e)
			delete(st.res, r.Name)
			st.used -= r.Bytes
			st.evictions++
			r.closer.Close()
		}
		e = prev
	}
}

// Residents returns a snapshot of the resident graphs, most recently used
// first.
func (st *Store) Residents() []ResidentInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]ResidentInfo, 0, st.order.Len())
	for e := st.order.Front(); e != nil; e = e.Next() {
		r := e.Value.(*Resident)
		out = append(out, ResidentInfo{
			Name:        r.Name,
			Path:        r.Path,
			Fingerprint: fmt.Sprintf("%08x", r.FP),
			N:           r.G.N(),
			M:           r.G.M(),
			Bytes:       r.Bytes,
			Mapped:      r.Mapped,
			Pinned:      r.refs > 0,
		})
	}
	return out
}

// ResidentInfo is the /graphs listing row.
type ResidentInfo struct {
	Name        string `json:"name"`
	Path        string `json:"path"`
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Bytes       int64  `json:"bytes"`
	Mapped      bool   `json:"mapped"`
	Pinned      bool   `json:"pinned"`
}

// Usage returns the resident count, total resident bytes and eviction
// count.
func (st *Store) Usage() (residents int, bytes int64, evictions int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.res), st.used, st.evictions
}
