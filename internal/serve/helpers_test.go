package serve

// Shared fixtures for the service-level suite: synthetic algorithm
// families (one per sentinel class, a certificate-violating one, and a
// gated one whose Solve blocks on a channel so coalescing tests can hold a
// run in flight deterministically), graph files in both on-disk formats,
// and an httptest harness. Synthetic families are registered under a
// "zz-test-" prefix; the every-registered-family sweeps skip that prefix.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/family"
	"congestds/internal/graph"
)

const testFamPrefix = "zz-test-"

// testCert is the synthetic families' certificate.
type testCert struct{ ok bool }

func (c testCert) Passed() bool   { return c.ok }
func (c testCert) String() string { return fmt.Sprintf("test certificate (ok=%v)", c.ok) }

// sentinelFamilies maps each congest sentinel class to the synthetic
// family whose Solve fails with a (wrapped) error of that class.
var sentinelFamilies = map[string]string{
	"bandwidth":  testFamPrefix + "err-bandwidth",
	"max-rounds": testFamPrefix + "err-maxrounds",
	"deadline":   testFamPrefix + "err-deadline",
	"injected":   testFamPrefix + "err-injected",
	"config":     testFamPrefix + "err-config",
	"program":    testFamPrefix + "err-program",
}

// Gate plumbing for the gated family. Guarded by gateMu; tests in this
// package do not run in parallel.
var (
	gateMu      sync.Mutex
	gateEntered chan struct{} // Solve sends one token on entry when non-nil
	gateRelease chan struct{} // Solve blocks until closed when non-nil
)

// armGate installs fresh gate channels sized for n concurrent runs and
// returns them; the cleanup disarms the gate.
func armGate(t *testing.T, n int) (entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, n)
	release = make(chan struct{})
	gateMu.Lock()
	gateEntered, gateRelease = entered, release
	gateMu.Unlock()
	t.Cleanup(func() {
		gateMu.Lock()
		gateEntered, gateRelease = nil, nil
		gateMu.Unlock()
	})
	return entered, release
}

var registerTestFamilies = sync.OnceFunc(func() {
	for class, name := range sentinelFamilies {
		cause := map[string]error{
			"bandwidth":  congest.ErrBandwidth,
			"max-rounds": congest.ErrMaxRounds,
			"deadline":   congest.ErrDeadline,
			"injected":   congest.ErrInjected,
			"config":     congest.ErrConfig,
			"program":    errors.New("synthetic program failure"),
		}[class]
		family.Register(family.Family{
			Name:       name,
			Summary:    "test-only: always fails with the " + class + " sentinel",
			DefaultEps: 0.5,
			Solve: func(g *graph.Graph, p family.Params) (*family.Result, error) {
				return nil, fmt.Errorf("synthetic failure: %w", cause)
			},
		})
	}
	family.Register(family.Family{
		Name:       testFamPrefix + "certfail",
		Summary:    "test-only: returns a solution whose certificate fails",
		DefaultEps: 0.5,
		Solve: func(g *graph.Graph, p family.Params) (*family.Result, error) {
			return &family.Result{Set: []int{0}, Rounds: 1, Cert: testCert{ok: false}}, nil
		},
	})
	family.Register(family.Family{
		Name:       testFamPrefix + "gate",
		Summary:    "test-only: blocks on the package gate, result depends on eps",
		DefaultEps: 0.5,
		Solve: func(g *graph.Graph, p family.Params) (*family.Result, error) {
			gateMu.Lock()
			entered, release := gateEntered, gateRelease
			gateMu.Unlock()
			if entered != nil {
				entered <- struct{}{}
			}
			if release != nil {
				<-release
			}
			// The solution depends on eps so distinct-params requests can
			// be told apart by body bytes, not just headers.
			size := 1 + int(p.Eps*10)
			if size > g.N() {
				size = g.N()
			}
			set := make([]int, size)
			for i := range set {
				set[i] = i
			}
			return &family.Result{Set: set, Rounds: 1, Cert: testCert{ok: true}}, nil
		},
	})
})

// testGraph is the small connected fixture every suite shares.
func testGraph() *graph.Graph { return graph.GNPConnected(24, 0.18, 7) }

// writeText writes g in the text edge-list format and returns the path.
func writeText(t *testing.T, dir, name string, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeCSRG writes g in the binary .csrg format and returns the path.
func writeCSRG(t *testing.T, dir, name string, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := g.WriteCSRGFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestServer builds a Server over the given graphs and wraps it in an
// httptest.Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	registerTestFamilies()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// get performs a GET and returns status, the X-Mdsd-* headers and body.
func get(t *testing.T, url string) (status int, cacheState, sentinel string, body []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s body: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Mdsd-Cache"), resp.Header.Get("X-Mdsd-Sentinel"), body
}
