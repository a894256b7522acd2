package serve

import (
	"fmt"
	"net/http"
	"sync"
)

// outcome is what one engine run (or its failure) produces, shared verbatim
// between the leader that ran it and every coalesced follower.
type outcome struct {
	ent      *entry // non-nil on success
	status   int    // HTTP status (200 on success, StatusForClass otherwise)
	errMsg   string // error body text when ent == nil
	sentinel string // congest.SentinelClass of the failure, "" if none
}

// flightGroup coalesces concurrent requests for the same key into a single
// execution: the first caller becomes the leader and runs fn, every caller
// that arrives while the leader is in flight blocks until the leader
// finishes and receives the identical outcome. Keys are fully canonical
// (graph fingerprint + family + Params.Key), so two requests coalesce
// exactly when the engine would have produced byte-identical answers —
// distinct parameters never share a flight.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	out     outcome
	waiters int // callers blocked on done, for observability
}

// waiting reports how many callers are currently blocked on in-flight
// leaders across all keys. Tests use it to know every concurrent request
// has coalesced before releasing a gated run.
func (g *flightGroup) waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.calls {
		n += c.waiters
	}
	return n
}

// do returns fn's outcome for key, running fn at most once across
// concurrent callers. The second return reports whether this caller
// coalesced onto another's flight. A panic in fn becomes a 500 outcome of
// sentinel class "program" for the leader and every follower; the key is
// released either way, so later requests run afresh instead of waiting on
// a flight that never lands.
func (g *flightGroup) do(key string, fn func() outcome) (out outcome, coalesced bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[string]*flightCall{}
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		<-c.done
		return c.out, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	defer func() {
		if v := recover(); v != nil {
			c.out = outcome{
				status:   http.StatusInternalServerError,
				errMsg:   fmt.Sprintf("serve: run panicked: %v", v),
				sentinel: "program",
			}
			out = c.out
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.out = fn()
	return c.out, false
}
