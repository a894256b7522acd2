package conformance

import (
	"bytes"
	"path/filepath"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// TestCSRGRepresentationConformance is the cross-representation
// differential pass: every corpus graph is routed through the .csrg binary
// format (write → memory-map) and every registered program must be unable
// to tell the mapped graph from the built one — identical output bytes and
// metrics on the reference engine, and the full engine Diff must hold on
// the mapped representation exactly as it does on the built one. This is
// what makes the zero-copy loader safe to put under the engines: a CSR
// aliasing a read-only mapping has different slice capacities, alignment
// and backing memory than a Builder product, and any behavioural leak of
// that difference is a bug this test catches at byte level.
func TestCSRGRepresentationConformance(t *testing.T) {
	dir := t.TempDir()
	corpus := Corpus(testing.Short())
	for _, ng := range corpus {
		path := filepath.Join(dir, ng.Name+".csrg")
		if err := ng.G.WriteCSRGFile(path); err != nil {
			t.Fatalf("write %s: %v", ng.Name, err)
		}
		mg, err := graph.Mmap(path)
		if err != nil {
			t.Fatalf("mmap %s: %v", ng.Name, err)
		}
		defer mg.Close()

		for _, c := range Cases() {
			cfg := congest.Config{}
			// Reference outputs on both representations must be
			// byte-identical; Diff below then extends the identity to the
			// stepped engine and the stepped form.
			ref := runOn(c, ng.G, congest.EngineGoroutine, cfg)
			mapped := runOn(c, mg.Graph, congest.EngineGoroutine, cfg)
			if (ref.Err == nil) != (mapped.Err == nil) {
				t.Errorf("%s on %s: error mismatch built=%v mapped=%v", c.Name, ng.Name, ref.Err, mapped.Err)
				continue
			}
			if !bytes.Equal(ref.Output, mapped.Output) {
				t.Errorf("%s on %s: output diverges between built and mapped graph (%d vs %d bytes)",
					c.Name, ng.Name, len(ref.Output), len(mapped.Output))
				continue
			}
			if err := diffMetrics(ref.Metrics, mapped.Metrics); err != nil {
				t.Errorf("%s on %s: metrics diverge between built and mapped graph: %v", c.Name, ng.Name, err)
				continue
			}
			if err := Diff(c, mg.Graph, congest.Config{}); err != nil {
				t.Errorf("mapped %s: %v", ng.Name, err)
			}
		}
	}
}
