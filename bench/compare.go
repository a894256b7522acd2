package main

import (
	"fmt"
	"io"
)

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares a metric's runs on a baseline side a with a change b.
// The change regressed when its median is worse than the baseline's by
// more than the bound; when either side's spread (interquartile distance
// over median) is wider than the bound the pair is unresolved instead —
// unless every run of one side reads better than every run of the other,
// which settles it either way.
func verdict(d metricDef, a, b []float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := relWorse(d, ma, mb)
	switch {
	case allBetter(d, b, a):
		return verdictOK
	case allBetter(d, a, b) && worse > d.Bound:
		return verdictRegressed
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return verdictUnresolved
	case worse > d.Bound:
		return verdictRegressed
	}
	return verdictOK
}

// relWorse is how much worse b is than a, as a share of a (negative when
// better).
func relWorse(d metricDef, a, b float64) float64 {
	delta := b - a
	if d.Better == "higher" {
		delta = -delta
	}
	switch {
	case a != 0:
		return delta / a
	case delta > 0:
		return 1
	case delta < 0:
		return -1
	}
	return 0
}

// allBetter reports whether every value of x reads strictly better than
// every value of y.
func allBetter(d metricDef, x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	for _, u := range x {
		for _, v := range y {
			if relWorse(d, v, u) >= 0 {
				return false
			}
		}
	}
	return true
}

// exactVerdict compares an exact metric seed by seed: one seed always
// gives the same value, so any seed on which the change reads worse is a
// regression, whatever the bound. Without the same seeds on both sides
// the runs cannot tell.
func exactVerdict(d metricDef, a, b []record) string {
	va, vb := bySeed(a, d.Name), bySeed(b, d.Name)
	if len(va) != len(vb) {
		return verdictUnresolved
	}
	for seed, x := range va {
		y, ok := vb[seed]
		if !ok {
			return verdictUnresolved
		}
		if relWorse(d, x, y) > 0 {
			return verdictRegressed
		}
	}
	return verdictOK
}

func bySeed(recs []record, name string) map[uint64]float64 {
	m := map[uint64]float64{}
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			m[r.Seed] = v.Value
		}
	}
	return m
}

// failVerdict is fail_ratio's verdict, failed over attempted ops across a
// side's runs. Its bound is 0: any rise is a regression.
func failVerdict(a, b []record) (ra, rb float64, v string) {
	ratio := func(recs []record) float64 {
		var failed, attempted int
		for _, r := range recs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	ra, rb = ratio(a), ratio(b)
	if rb > ra {
		return ra, rb, verdictRegressed
	}
	return ra, rb, verdictOK
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles over its untraced runs, how much worse B's median
// is (negative: better) and the verdict, then each side's fail_ratio, and
// flags every seed whose output_digest differs. Exact metrics are judged
// seed by seed (exactVerdict). It reports whether any pair regressed.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	a, b := groupRuns(recsA), groupRuns(recsB)
	regressed := false
	fmt.Fprintf(w, "%-12s %-18s %-32s %-32s %8s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse", "verdict")
	for _, wl := range workloadNames() {
		ra, rb := a[wl], b[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := metricValues(ra, d.Name), metricValues(rb, d.Name)
			v, bound := verdict(d, va, vb), fmt.Sprintf("bound %g", d.Bound)
			if exact[d.Name] {
				v, bound = exactVerdict(d, ra, rb), "exact, per seed"
			}
			regressed = regressed || v == verdictRegressed
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "%-12s %-18s %-32s %-32s %+7.2f%%  %s (%s)\n", wl, d.Name,
				describe(va), describe(vb), 100*relWorse(d, ma, mb), v, bound)
		}
		fa, fb, v := failVerdict(ra, rb)
		regressed = regressed || v == verdictRegressed
		fmt.Fprintf(w, "%-12s %-18s %-32g %-32g %8s  %s (bound 0)\n", wl, "fail_ratio", fa, fb, "", v)
		digB := map[uint64]string{}
		for _, r := range rb {
			digB[r.Seed] = r.OutputDigest
		}
		for _, r := range ra {
			if d, ok := digB[r.Seed]; ok && d != r.OutputDigest {
				fmt.Fprintf(w, "%-12s output_digest CHANGED for seed %d: %s -> %s\n", wl, r.Seed, r.OutputDigest, d)
				delete(digB, r.Seed)
			}
		}
	}
	return regressed, nil
}

// groupRuns returns the untraced runs per workload.
func groupRuns(recs []record) map[string][]record {
	m := map[string][]record{}
	for _, r := range recs {
		if !r.Traced {
			m[r.Workload] = append(m[r.Workload], r)
		}
	}
	return m
}

func metricValues(recs []record, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

func describe(vs []float64) string {
	q1, med, q3 := quartiles(vs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", med, q1, q3, len(vs))
}
