package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"congestds/internal/congest"
)

// Aggregator is the in-memory Sink behind `mdsrun -profile`: it retains
// every round record (rounds are bounded by MaxRounds, so this is small)
// and summarizes events, then derives a Profile. Everything it computes is
// a pure function of the record stream — no clock reads — so a live run
// and a Replay of that run's JSONL trace yield identical profiles.
type Aggregator struct {
	mu     sync.Mutex
	rounds []RoundRec
	events map[string]*EventSummary
}

var _ Sink = (*Aggregator)(nil)

// NewAggregator returns an empty Aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{events: map[string]*EventSummary{}}
}

// Round implements Sink.
func (a *Aggregator) Round(r RoundRec) {
	a.mu.Lock()
	a.rounds = append(a.rounds, r)
	a.mu.Unlock()
}

// Event implements Sink.
func (a *Aggregator) Event(e EventRec) {
	a.mu.Lock()
	s := a.events[e.Kind]
	if s == nil {
		s = &EventSummary{Kind: e.Kind}
		a.events[e.Kind] = s
	}
	s.Count++
	s.Sum += e.Value
	if e.Value > s.Max {
		s.Max = e.Value
	}
	a.mu.Unlock()
}

// Close implements Sink (nothing to release).
func (a *Aggregator) Close() error { return nil }

// EventSummary folds every event of one kind: Sum/Max are over the
// events' Value field (chunk steal counts for sweep-end, arena bytes for
// arena, parked waiters for wake, ...).
type EventSummary struct {
	Kind  string
	Count int64
	Sum   int64
	Max   int64
}

// SlowRound identifies one of the slowest rounds of a run.
type SlowRound struct {
	Seg    int
	Round  int
	WallNs int64
	Msgs   int64
	Live   int
	Awake  int
}

// Profile is the derived summary of a record stream.
type Profile struct {
	Segments   int
	Rounds     int
	NodeSteps  int64 // Init/Step calls summed over rounds (RoundRec.Awake)
	Msgs       int64
	Bits       int64
	MaxMsgBits int
	WallNs     int64 // sum of per-round wall times
	Hist       congest.MsgHist

	// Round wall-time distribution, nanoseconds.
	P50Ns, P90Ns, P99Ns, MaxNs int64

	Slowest []SlowRound    // top rounds by wall time, slowest first
	Events  []EventSummary // sorted by kind
}

// topSlow is how many rounds Profile.Slowest retains.
const topSlow = 5

// Profile derives the summary of everything aggregated so far.
func (a *Aggregator) Profile() Profile {
	a.mu.Lock()
	defer a.mu.Unlock()
	var p Profile
	segs := map[int]bool{}
	walls := make([]int64, 0, len(a.rounds))
	for _, r := range a.rounds {
		segs[r.Seg] = true
		p.Rounds++
		p.NodeSteps += int64(r.Awake)
		p.Msgs += r.Msgs
		p.Bits += r.Bits
		if r.MaxMsgBits > p.MaxMsgBits {
			p.MaxMsgBits = r.MaxMsgBits
		}
		p.WallNs += r.WallNs
		p.Hist.Merge(r.Hist)
		walls = append(walls, r.WallNs)
	}
	p.Segments = len(segs)
	if len(walls) > 0 {
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		p.P50Ns = Percentile(walls, 50)
		p.P90Ns = Percentile(walls, 90)
		p.P99Ns = Percentile(walls, 99)
		p.MaxNs = walls[len(walls)-1]
	}
	slow := append([]RoundRec(nil), a.rounds...)
	// Slowest first; (seg, round) ascending breaks wall-time ties so the
	// listing is deterministic across live and replayed runs.
	sort.Slice(slow, func(i, j int) bool {
		if slow[i].WallNs != slow[j].WallNs {
			return slow[i].WallNs > slow[j].WallNs
		}
		if slow[i].Seg != slow[j].Seg {
			return slow[i].Seg < slow[j].Seg
		}
		return slow[i].Round < slow[j].Round
	})
	for i := 0; i < len(slow) && i < topSlow; i++ {
		r := slow[i]
		p.Slowest = append(p.Slowest, SlowRound{
			Seg: r.Seg, Round: r.Round, WallNs: r.WallNs, Msgs: r.Msgs, Live: r.Live, Awake: r.Awake,
		})
	}
	kinds := make([]string, 0, len(a.events))
	for k := range a.events {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		p.Events = append(p.Events, *a.events[k])
	}
	return p
}

// Percentile returns the nearest-rank q-th percentile of sorted (ascending)
// samples, 0 when there are none. Profile and the serving layer's /stats
// both use it, so every percentile the repo reports means the same thing.
func Percentile(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (q*len(sorted) + 99) / 100 // ceil(q/100 * n), nearest-rank
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func durNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// String renders the profile as the table `mdsrun -profile` prints: the
// counts, then the timings.
func (p Profile) String() string { return p.Counts() + p.Timings() }

// workerEvent reports whether events of the given kind are per pool
// worker: their count scales with GOMAXPROCS and their values with the
// steal schedule, so they render with the timings, not the counts.
func workerEvent(kind string) bool {
	return kind == congest.EvSweepStart.String() || kind == congest.EvSweepEnd.String()
}

// Counts renders the part of the profile that is a pure function of the
// run: rounds, node-steps, traffic, the message-size histogram and the
// events of every kind that is not per worker. Two runs of one solve
// render the same counts on any machine and worker count.
func (p Profile) Counts() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %d segment(s), %d rounds, %d node-steps, %d msgs, %d bits (max msg %d bits)\n",
		p.Segments, p.Rounds, p.NodeSteps, p.Msgs, p.Bits, p.MaxMsgBits)
	if p.Hist.Total() > 0 {
		fmt.Fprintf(&b, "message size histogram (payload bits):\n")
		for i := range p.Hist {
			if p.Hist[i] == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-12s %10d\n", congest.BucketLabel(i), p.Hist[i])
		}
	}
	writeEvents(&b, "events:", p.Events, false)
	return b.String()
}

// Timings renders the part of the profile that depends on the clock and
// the worker pool: wall time, the round-time percentiles, the slowest
// rounds and the per-worker sweep events.
func (p Profile) Timings() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall: %s\n", durNs(p.WallNs))
	fmt.Fprintf(&b, "round wall time: p50=%s p90=%s p99=%s max=%s\n",
		durNs(p.P50Ns), durNs(p.P90Ns), durNs(p.P99Ns), durNs(p.MaxNs))
	if len(p.Slowest) > 0 {
		fmt.Fprintf(&b, "slowest rounds:\n")
		fmt.Fprintf(&b, "  %-4s %-6s %12s %10s %8s %8s\n", "seg", "round", "wall", "msgs", "live", "awake")
		for _, s := range p.Slowest {
			fmt.Fprintf(&b, "  %-4d %-6d %12s %10d %8d %8d\n", s.Seg, s.Round, durNs(s.WallNs), s.Msgs, s.Live, s.Awake)
		}
	}
	writeEvents(&b, "worker events:", p.Events, true)
	return b.String()
}

// writeEvents renders the summaries whose kind is (worker) or is not
// (!worker) per worker under title, or nothing when there are none.
func writeEvents(b *strings.Builder, title string, events []EventSummary, worker bool) {
	header := false
	for _, e := range events {
		if workerEvent(e.Kind) != worker {
			continue
		}
		if !header {
			fmt.Fprintf(b, "%s\n", title)
			fmt.Fprintf(b, "  %-14s %8s %14s %14s\n", "kind", "count", "sum", "max")
			header = true
		}
		fmt.Fprintf(b, "  %-14s %8d %14d %14d\n", e.Kind, e.Count, e.Sum, e.Max)
	}
}
