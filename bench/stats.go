package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// samples: the smallest sample with at least q% of the samples at or below
// it. It is the rule internal/obs and internal/serve use, so a p50 here
// means what `mdsrun -profile` and mdsd's /stats mean by it. Zero samples
// give 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// quartiles returns the first quartile, the median and the third quartile
// of samples by the "exclusive" method of Python's
// statistics.quantiles(samples, n=4) and statistics.median, so -compare
// reports the same quartiles a script over the run records would. A single
// sample is all three; zero samples give zeros.
func quartiles(samples []float64) (q1, med, q3 float64) {
	s := sorted(samples)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	mid := len(s) / 2
	med = s[mid]
	if len(s)%2 == 0 {
		med = (s[mid-1] + s[mid]) / 2
	}
	return cut(1), med, cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure bounds are compared against.
func spread(samples []float64) float64 {
	q1, med, q3 := quartiles(samples)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
