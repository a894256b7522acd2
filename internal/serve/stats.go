package serve

import (
	"sort"
	"sync"

	"congestds/internal/obs"
)

// sampleCap bounds the per-family percentile reservoirs: the most recent
// sampleCap runs contribute to the /stats percentiles, so a long-lived
// daemon's stats stay O(families) in memory.
const sampleCap = 1024

// counters is the server's mutable statistics state. All wall times come
// from the per-run obs.Recorder stamps — the serving layer itself never
// reads a clock.
type counters struct {
	mu        sync.Mutex
	runs      int64
	coalesced int64
	cacheHits int64
	cacheMiss int64
	errors    int64
	fams      map[string]*famSamples
}

type famSamples struct {
	runs   int64
	rounds []int64 // ring buffers, most recent sampleCap runs
	wallNs []int64
	next   int
}

func (c *counters) coalescedHit() {
	c.mu.Lock()
	c.coalesced++
	c.mu.Unlock()
}

func (c *counters) cacheHit() {
	c.mu.Lock()
	c.cacheHits++
	c.mu.Unlock()
}

func (c *counters) cacheMissed() {
	c.mu.Lock()
	c.cacheMiss++
	c.mu.Unlock()
}

func (c *counters) runFailed() {
	c.mu.Lock()
	c.runs++
	c.errors++
	c.mu.Unlock()
}

// runDone records one completed engine run for fam.
func (c *counters) runDone(fam string, rounds int, wallNs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	if c.fams == nil {
		c.fams = map[string]*famSamples{}
	}
	s := c.fams[fam]
	if s == nil {
		s = &famSamples{}
		c.fams[fam] = s
	}
	s.runs++
	if len(s.rounds) < sampleCap {
		s.rounds = append(s.rounds, int64(rounds))
		s.wallNs = append(s.wallNs, wallNs)
	} else {
		s.rounds[s.next] = int64(rounds)
		s.wallNs[s.next] = wallNs
	}
	s.next = (s.next + 1) % sampleCap
}

// Stats is the /stats response shape.
type Stats struct {
	Runs           int64                  `json:"runs"`
	CoalescedHits  int64                  `json:"coalesced_hits"`
	CacheHits      int64                  `json:"cache_hits"`
	CacheMisses    int64                  `json:"cache_misses"`
	Errors         int64                  `json:"errors"`
	CacheEntries   int                    `json:"cache_entries"`
	CacheBytes     int64                  `json:"cache_bytes"`
	CacheEvictions int64                  `json:"cache_evictions"`
	GraphsResident int                    `json:"graphs_resident"`
	GraphBytes     int64                  `json:"graph_bytes"`
	GraphEvictions int64                  `json:"graph_evictions"`
	Families       map[string]FamilyStats `json:"families"`
}

// FamilyStats summarizes the recent runs of one family: nearest-rank
// percentiles over the last sampleCap runs' round counts and wall times.
type FamilyStats struct {
	Runs      int64   `json:"runs"`
	RoundsP50 int64   `json:"rounds_p50"`
	RoundsP90 int64   `json:"rounds_p90"`
	RoundsP99 int64   `json:"rounds_p99"`
	RoundsMax int64   `json:"rounds_max"`
	WallMsP50 float64 `json:"wall_ms_p50"`
	WallMsP90 float64 `json:"wall_ms_p90"`
	WallMsP99 float64 `json:"wall_ms_p99"`
	WallMsMax float64 `json:"wall_ms_max"`
}

// snapshot folds the counters into the exported Stats shape (cache and
// store gauges are filled in by the Server, which owns those components).
func (c *counters) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Runs:          c.runs,
		CoalescedHits: c.coalesced,
		CacheHits:     c.cacheHits,
		CacheMisses:   c.cacheMiss,
		Errors:        c.errors,
		Families:      map[string]FamilyStats{},
	}
	for name, f := range c.fams {
		rounds := append([]int64(nil), f.rounds...)
		wall := append([]int64(nil), f.wallNs...)
		sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
		sort.Slice(wall, func(i, j int) bool { return wall[i] < wall[j] })
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		s.Families[name] = FamilyStats{
			Runs:      f.runs,
			RoundsP50: obs.Percentile(rounds, 50),
			RoundsP90: obs.Percentile(rounds, 90),
			RoundsP99: obs.Percentile(rounds, 99),
			RoundsMax: obs.Percentile(rounds, 100),
			WallMsP50: ms(obs.Percentile(wall, 50)),
			WallMsP90: ms(obs.Percentile(wall, 90)),
			WallMsP99: ms(obs.Percentile(wall, 99)),
			WallMsMax: ms(obs.Percentile(wall, 100)),
		}
	}
	return s
}
