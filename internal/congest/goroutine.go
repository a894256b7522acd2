package congest

import (
	"sort"
	"sync"
	"sync/atomic"
)

// goroutineEngine is the reference engine: one goroutine per node, a global
// mutex-protected barrier, and per-node pending inboxes. Simple, but every
// Sync serializes on one mutex and every round sorts every inbox, which
// dominates wall-clock time on large graphs (see EngineStepped).
type goroutineEngine struct {
	net   *Network
	topo  *topology // the stepped engine's slot layout, read for receiver ports
	nodes []*Node
	round int

	mu      sync.Mutex
	waiting int
	active  int
	resume  chan struct{}
	pending [][]Incoming
	failure error
	// unwind is set (monotonically) just before a wake-up that ends a
	// failed round. Waiters check it after waking instead of the raw
	// failure state: a failure recorded after a successful delivery but
	// before a waiter gets scheduled must not make that waiter skip its
	// round, or the deposits a failed run counts would depend on goroutine
	// scheduling.
	unwind atomic.Bool

	traffic tally // under mu
	// obs mirrors net.cfg.Observer (nil = telemetry off).
	obs Observer
}

func (eng *goroutineEngine) currentRound() int { return eng.round }

// runGoroutine executes prog on every node, one goroutine per node.
func (net *Network) runGoroutine(prog Program) (Metrics, error) {
	n := net.g.N()
	eng := &goroutineEngine{
		net:     net,
		topo:    net.topology(),
		nodes:   make([]*Node, n),
		resume:  make(chan struct{}),
		pending: make([][]Incoming, n),
		active:  n,
	}
	eng.obs = net.cfg.Observer
	ios := make([]nodeIO, n)
	for v := 0; v < n; v++ {
		eng.nodes[v] = &Node{net: net, sched: eng, v: v, io: &ios[v]}
	}
	if eng.obs != nil && n > 0 {
		eng.obs.RoundStart(1)
	}
	var wg sync.WaitGroup
	wg.Add(n)
	// The goroutines block on the barrier, so n goroutines are fine even for
	// large n; OS-level parallelism is limited by GOMAXPROCS as usual.
	for v := 0; v < n; v++ {
		nd := eng.nodes[v]
		go func() {
			defer wg.Done()
			defer eng.finish(nd)
			defer recoverNode(nd.v, eng.fail)
			runProg(nd, prog)
		}()
	}
	wg.Wait()
	return net.metrics(eng.round, eng.traffic), eng.failure
}

// barrier implements Sync: the last arriving node performs delivery and
// wakes everyone. A node arriving after a mid-round failure still deposits
// and is counted — the round in progress always completes (exactly like
// the stepped engine's sweep, which steps every remaining node of the
// round), so the deposits a failed run counts are deterministic and
// engine-independent; the unwind happens at the delivery point.
func (eng *goroutineEngine) barrier(nd *Node) {
	eng.mu.Lock()
	eng.deposit(nd)
	eng.waiting++
	if eng.waiting == eng.active {
		eng.deliverLocked()
		err := eng.failure
		eng.mu.Unlock()
		if err != nil {
			// The run failed (MaxRounds, or a node panicked this round):
			// unwind like every other waiter instead of computing more.
			panic(runError{err})
		}
		return
	}
	resume := eng.resume
	eng.mu.Unlock()
	<-resume
	// Unwind at the delivery that completed a failed round, before
	// computing another one.
	if eng.unwind.Load() {
		panic(runError{eng.loadFailure()})
	}
}

func (eng *goroutineEngine) loadFailure() error {
	eng.mu.Lock()
	defer eng.mu.Unlock()
	return eng.failure
}

// finish marks a node as permanently done.
func (eng *goroutineEngine) finish(nd *Node) {
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if nd.stopped {
		return
	}
	nd.stopped = true
	eng.deposit(nd)
	eng.active--
	if eng.active > 0 && eng.waiting == eng.active {
		eng.deliverLocked()
	}
}

// deposit moves nd's outbox into the pending inboxes. Caller holds mu.
func (eng *goroutineEngine) deposit(nd *Node) {
	out := eng.topo.inOff[nd.v]
	for _, m := range nd.io.outbox {
		dst := nd.net.g.Neighbors(nd.v)[m.port]
		// The receiving port is the sender's slot's offset in dst's inbox.
		dstPort := int(eng.topo.destSlot[out+int32(m.port)] - eng.topo.inOff[dst])
		eng.pending[dst] = append(eng.pending[dst], Incoming{Port: dstPort, Payload: m.payload})
		eng.traffic.count(len(m.payload))
	}
	nd.io.outbox = nd.io.outbox[:0]
}

// deliverLocked distributes pending messages and resumes all waiters. If
// the run failed during the round just completed, the delivery (and the
// round increment) is skipped and the wake-up only unwinds the waiters, so
// a failed run's Rounds metric counts actual deliveries. Caller holds mu.
func (eng *goroutineEngine) deliverLocked() {
	delivered := false
	if eng.failure == nil {
		eng.round++
		delivered = true
		eng.failure = eng.net.checkRound(eng.round)
	}
	if eng.failure != nil {
		eng.unwind.Store(true)
	}
	if eng.failure == nil {
		if h := eng.net.cfg.Hooks; h != nil {
			h.Stall(eng.round)
		}
		for v, msgs := range eng.pending {
			if msgs == nil {
				continue
			}
			sort.Slice(msgs, func(i, j int) bool { return msgs[i].Port < msgs[j].Port })
			if !eng.nodes[v].stopped {
				eng.nodes[v].io.inbox = msgs
			}
			eng.pending[v] = nil
		}
	}
	// RoundEnd fires iff the round counter advanced — even when checkRound
	// just failed the round — so on every engine and outcome the RoundEnd
	// count equals Metrics.Rounds.
	if eng.obs != nil && delivered {
		eng.obs.Event(Event{Kind: EvWake, Round: eng.round, Node: -1, Value: int64(eng.waiting)})
		eng.obs.RoundEnd(eng.traffic.stats(eng.round, eng.active, eng.active))
		if eng.failure == nil {
			eng.obs.RoundStart(eng.round + 1)
		}
	}
	eng.waiting = 0
	close(eng.resume)
	eng.resume = make(chan struct{})
}

// fail records the first failure. It deliberately does NOT wake waiters:
// the failing node's deferred finish completes the round (deposit, active
// count), every other active node still arrives or finishes, and the
// arrival that completes the round performs the unwind wake-up — so the
// traffic a failed run reports is a pure function of the program, not of
// which goroutine the scheduler ran first.
func (eng *goroutineEngine) fail(err error) {
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if eng.failure == nil {
		eng.failure = err
	}
}
