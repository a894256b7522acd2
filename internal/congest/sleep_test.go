package congest

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"congestds/internal/graph"
)

// stepLog records, per node, the rounds in which its Step ran (-1 = Init).
// Each node appends to its own entry only.
type stepLog [][]int

func (l stepLog) add(v, round int) { l[v] = append(l[v], round) }

// awakeObs keeps every RoundStats a run delivers.
type awakeObs struct {
	mu    sync.Mutex
	stats []RoundStats
}

func (o *awakeObs) RoundStart(int) {}
func (o *awakeObs) RoundEnd(s RoundStats) {
	o.mu.Lock()
	o.stats = append(o.stats, s)
	o.mu.Unlock()
}
func (o *awakeObs) Event(Event) {}

// noOpSleeper asks to sleep until rounds that are not in the future, which
// must leave it awake for every round.
type noOpSleeper struct {
	log    stepLog
	rounds int
}

func (s *noOpSleeper) sleep(nd *Node) {
	nd.SleepUntil(nd.Round())
	nd.SleepUntil(nd.Round() - 3)
	nd.SleepUntil(0)
}

func (s *noOpSleeper) Init(nd *Node) bool {
	s.log.add(nd.V(), -1)
	s.sleep(nd)
	return false
}

func (s *noOpSleeper) Step(nd *Node, round int, in []Incoming) bool {
	s.log.add(nd.V(), round)
	if round+1 >= s.rounds {
		return true
	}
	s.sleep(nd)
	return false
}

// TestSleepUntilPastIsNoOp: SleepUntil(r) with r ≤ Round() changes nothing
// on either engine: every node runs Init and every Step.
func TestSleepUntilPastIsNoOp(t *testing.T) {
	g := graph.Cycle(7)
	const rounds = 5
	want := []int{-1, 0, 1, 2, 3, 4}
	forEachEngine(t, func(t *testing.T, eng Engine) {
		log := make(stepLog, g.N())
		m, err := NewNetwork(g, Config{Engine: eng}).RunStepped(func(nd *Node) StepProgram {
			return &noOpSleeper{log: log, rounds: rounds}
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds != rounds {
			t.Errorf("rounds = %d, want %d", m.Rounds, rounds)
		}
		for v := 0; v < g.N(); v++ {
			if !reflect.DeepEqual(log[v], want) {
				t.Errorf("node %d ran %v, want %v", v, log[v], want)
			}
		}
	})
}

// lateSleeper: every node sends to its neighbours in Init and is done
// after Step(1), except node 0, which sleeps until round wake and is done
// there.
type lateSleeper struct {
	log  stepLog
	wake int
}

func (s *lateSleeper) Init(nd *Node) bool {
	s.log.add(nd.V(), -1)
	nd.Broadcast([]byte{byte(nd.V())})
	if nd.V() == 0 {
		nd.SleepUntil(s.wake)
	}
	return false
}

func (s *lateSleeper) Step(nd *Node, round int, in []Incoming) bool {
	s.log.add(nd.V(), round)
	if nd.V() == 0 {
		if round == s.wake {
			return true
		}
		nd.SleepUntil(s.wake) // woken by the Init mail: sleep on
		return false
	}
	return round >= 1
}

// TestSleepPastEveryoneElseFinished: a node asleep beyond the round in
// which every other node finished is still stepped at its timer, on both
// engines, and the idle rounds in between are delivered and observed.
func TestSleepPastEveryoneElseFinished(t *testing.T) {
	g := graph.Star(5)
	const wake = 12
	forEachEngine(t, func(t *testing.T, eng Engine) {
		log := make(stepLog, g.N())
		o := &awakeObs{}
		m, err := NewNetwork(g, Config{Engine: eng, Observer: o}).RunStepped(func(nd *Node) StepProgram {
			return &lateSleeper{log: log, wake: wake}
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds != wake+1 || m.Messages != int64(2*g.M()) {
			t.Errorf("rounds/msgs = %d/%d, want %d/%d", m.Rounds, m.Messages, wake+1, 2*g.M())
		}
		if got, want := log[0], []int{-1, 0, wake}; !reflect.DeepEqual(got, want) {
			t.Errorf("node 0 ran %v, want %v", got, want)
		}
		if len(o.stats) != m.Rounds {
			t.Fatalf("%d RoundEnds, want Metrics.Rounds=%d", len(o.stats), m.Rounds)
		}
		for i, st := range o.stats {
			// Rounds 1-2 run everyone (Init, then Step 0 with mail), round
			// 3 the leaves' final Step; then only node 0 is live, asleep.
			// The goroutine engine reports Live as Awake.
			wantLive, wantAwake := g.N(), g.N()
			switch {
			case i >= 2 && eng == EngineGoroutine:
				wantLive, wantAwake = 1, 1
			case i == 2:
				wantLive, wantAwake = 1, g.N()-1
			case i > 2:
				wantLive, wantAwake = 1, 0
			}
			if st.Live != wantLive || st.Awake != wantAwake {
				t.Errorf("round %d: live/awake = %d/%d, want %d/%d", st.Round, st.Live, st.Awake, wantLive, wantAwake)
			}
		}
	})
}

// napper broadcasts in Init, then sleeps until a far round.
type napper struct{}

func (napper) Init(nd *Node) bool {
	nd.Broadcast([]byte{1})
	nd.SleepUntil(1 << 20)
	return false
}

func (napper) Step(nd *Node, round int, in []Incoming) bool {
	nd.SleepUntil(1 << 20)
	return false
}

// TestSleepAllAsleepHitsMaxRounds: when every live node sleeps with no mail
// and no due timer, rounds still pass and the run fails with ErrMaxRounds
// and identical progress metrics on both engines.
func TestSleepAllAsleepHitsMaxRounds(t *testing.T) {
	g := graph.Grid(4, 5)
	const maxRounds = 40
	var ms []Metrics
	forEachEngine(t, func(t *testing.T, eng Engine) {
		o := &awakeObs{}
		m, err := NewNetwork(g, Config{Engine: eng, MaxRounds: maxRounds, Observer: o}).
			RunStepped(func(nd *Node) StepProgram { return napper{} })
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("err = %v, want ErrMaxRounds", err)
		}
		if m.Rounds != maxRounds+1 || m.Messages != int64(2*g.M()) {
			t.Errorf("rounds/msgs = %d/%d, want %d/%d", m.Rounds, m.Messages, maxRounds+1, 2*g.M())
		}
		if len(o.stats) != m.Rounds {
			t.Errorf("%d RoundEnds, want Metrics.Rounds=%d", len(o.stats), m.Rounds)
		}
		ms = append(ms, m)
	})
	if len(ms) == 2 && ms[0] != ms[1] {
		t.Errorf("metrics differ across engines: %+v vs %+v", ms[0], ms[1])
	}
}

// freshReader sends sparse, self-describing messages and sleeps on short
// timers, so sleeping nodes are skipped across several rounds while their
// neighbours' chunks keep recycling slot records and arena generations.
// Every payload carries (sender ID, send round); a receiver checks both, so
// a stale record or recycled arena byte fails the run, and it logs what it
// saw for the cross-engine comparison.
type freshReader struct {
	log    [][]int64
	rounds int
}

func mix(v, r int) int { return (v*2654435761 + r*40503) >> 5 }

func (s *freshReader) act(nd *Node, sendRound int) bool {
	if sendRound >= s.rounds {
		return true
	}
	v := nd.V()
	for p := 0; p < nd.Degree(); p++ {
		if mix(v+p, sendRound)%4 == 0 {
			buf := AppendVarint(nd.PayloadBuf(12), nd.ID())
			nd.Send(p, AppendVarint(buf, int64(sendRound)))
		}
	}
	nd.SleepUntil(sendRound + 1 + mix(v, sendRound)%5)
	return false
}

func (s *freshReader) Init(nd *Node) bool { return s.act(nd, 0) }

func (s *freshReader) Step(nd *Node, round int, in []Incoming) bool {
	v := nd.V()
	s.log[v] = append(s.log[v], int64(round), int64(len(in)))
	for _, msg := range in {
		id, off := Varint(msg.Payload, 0)
		sent, off := Varint(msg.Payload, off)
		if off != len(msg.Payload) || id != nd.NeighborID(msg.Port) || sent != int64(round) {
			panic(fmt.Sprintf("node %d round %d port %d: stale or foreign payload (id %d, sent %d)",
				v, round, msg.Port, id, sent))
		}
		s.log[v] = append(s.log[v], int64(msg.Port))
	}
	return s.act(nd, round+1)
}

// TestSleepSkippedNodeReadsFresh: a node skipped for several rounds never
// reads a stale slot record or arena generation when it wakes, by timer or
// by mail, and both engines log the same steps and inboxes. The graph is
// large enough for several chunks, so deposits cross chunk boundaries.
// Part of the -race -short suite.
func TestSleepSkippedNodeReadsFresh(t *testing.T) {
	g := graph.GNPConnected(1200, 0.004, 3)
	const rounds = 24
	var logs [][][]int64
	var ms []Metrics
	forEachEngine(t, func(t *testing.T, eng Engine) {
		log := make([][]int64, g.N())
		m, err := NewNetwork(g, Config{Engine: eng}).RunStepped(func(nd *Node) StepProgram {
			return &freshReader{log: log, rounds: rounds}
		})
		if err != nil {
			t.Fatal(err)
		}
		logs, ms = append(logs, log), append(ms, m)
	})
	if len(logs) != 2 {
		return
	}
	if ms[0] != ms[1] {
		t.Errorf("metrics differ across engines: %+v vs %+v", ms[0], ms[1])
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Error("step logs differ across engines")
	}
	steps := 0
	for _, l := range logs[1] {
		for i := 0; i < len(l); i += 2 + int(l[i+1]) {
			steps++
		}
	}
	if steps == 0 || steps >= rounds*g.N() {
		t.Errorf("%d node-steps in %d rounds of %d nodes: the program must both run and sleep", steps, rounds, g.N())
	}
}
