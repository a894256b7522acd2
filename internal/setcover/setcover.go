// Package setcover implements the paper's Section 5 generalization: the
// dominating set machinery applied to minimum set cover. In the distributed
// formulation, a node is created for each set and each element, with an edge
// when the set contains the element; our abstract rounding instances carry
// that bipartite structure directly (value sites = sets, constraints =
// elements), so the same derandomized one-shot rounding applies verbatim.
package setcover

import (
	"fmt"
	"math"
	"sort"

	"congestds/internal/derand"
	"congestds/internal/fixpoint"
	"congestds/internal/fractional"
	"congestds/internal/rounding"
)

// Instance is a set cover instance: elements 0..NumElements-1 and sets given
// as element lists.
type Instance struct {
	NumElements int
	Sets        [][]int
}

// Validate checks that every element is coverable.
func (in *Instance) Validate() error {
	if in.NumElements < 0 {
		return fmt.Errorf("setcover: negative element count")
	}
	covered := make([]bool, in.NumElements)
	for si, s := range in.Sets {
		for _, e := range s {
			if e < 0 || e >= in.NumElements {
				return fmt.Errorf("setcover: set %d contains invalid element %d", si, e)
			}
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			return fmt.Errorf("setcover: element %d not contained in any set", e)
		}
	}
	return nil
}

// MaxSetSize returns the largest set cardinality (the Δ̃ analogue).
func (in *Instance) MaxSetSize() int {
	m := 0
	for _, s := range in.Sets {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// Result is the output of Solve.
type Result struct {
	// Cover lists the chosen set indices.
	Cover []int
	// FractionalSize is the size of the intermediate fractional cover.
	FractionalSize float64
	// Bound is the guaranteed approximation factor of the rounding step
	// relative to the fractional cover: 1 + ln(smax+1) (+ the fractional
	// solver's own loss, cf. docs/ARCHITECTURE.md#substitutions,
	// substitution 4).
	Bound float64
}

// Solve computes a deterministic approximate set cover: a fractional
// threshold-greedy cover followed by the derandomized one-shot rounding of
// Lemma 3.10 with a distance-2 coloring of the set-element structure.
func Solve(in *Instance, eps float64) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("setcover: eps=%v out of (0,1]", eps)
	}
	nSets := len(in.Sets)
	if in.NumElements == 0 {
		return &Result{Bound: 1}, nil
	}
	ctx := fractional.ScaleFor(nSets + in.NumElements)
	x := fractionalCover(in, ctx, eps)

	// One-shot instance: value sites = sets, constraints = elements.
	smax := in.MaxSetSize()
	lnMul := ctx.FromFloat(math.Log(float64(smax + 1)))
	inst := &rounding.Instance{
		Ctx: ctx,
		X:   make([]fixpoint.Value, nSets),
		P:   make([]fixpoint.Value, nSets),
	}
	var fracSize fixpoint.Value
	for s := 0; s < nSets; s++ {
		fracSize = ctx.Add(fracSize, x[s])
		v := ctx.Clamp1(ctx.MulUp(x[s], lnMul))
		inst.X[s] = v
		inst.P[s] = v
	}
	memberSets := make([][]int32, in.NumElements)
	for si, s := range in.Sets {
		for _, e := range s {
			memberSets[e] = append(memberSets[e], int32(si))
		}
	}
	for e := 0; e < in.NumElements; e++ {
		sort.Slice(memberSets[e], func(a, b int) bool { return memberSets[e][a] < memberSets[e][b] })
		inst.C = append(inst.C, ctx.One())
		inst.Members = append(inst.Members, memberSets[e])
		inst.Owner = append(inst.Owner, memberSets[e][0])
	}
	proc, err := rounding.NewProcess(inst)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, nSets)
	for s := range ids {
		ids[s] = int64(s + 1)
	}
	out, _ := derand.ByColoring(proc, ids, nil, true)
	res := &Result{
		FractionalSize: ctx.Float(fracSize),
		Bound:          1 + math.Log(float64(smax+1)),
	}
	for s, v := range out.Values {
		if v == ctx.One() {
			res.Cover = append(res.Cover, s)
		}
	}
	if err := checkCover(in, res.Cover); err != nil {
		return nil, fmt.Errorf("setcover: internal: %w", err)
	}
	return res, nil
}

// fractionalCover runs the threshold-batched fractional greedy of
// fractional.Initial on the set system (structural form): the same schedule
// (fractional.CoverPhases with Δ̃ = the largest set size), updated
// sequentially on the host, leaving a threshold once no set raises.
func fractionalCover(in *Instance, ctx fixpoint.Ctx, eps float64) []fixpoint.Value {
	nSets := len(in.Sets)
	x := make([]fixpoint.Value, nSets)
	cov := make([]fixpoint.Value, in.NumElements)
	for _, ph := range fractional.CoverPhases(ctx, eps, in.MaxSetSize()-1) {
		for it := 0; it < ph.Iters; it++ {
			// Residual degrees.
			raised := false
			for s := 0; s < nSets; s++ {
				if x[s] >= ctx.One() {
					continue
				}
				d := 0
				for _, e := range in.Sets[s] {
					if cov[e] < ctx.One() {
						d++
					}
				}
				if fixpoint.Value(uint64(d))*ctx.One() >= ph.Threshold {
					nx := ctx.Clamp1(ctx.Add(x[s], ph.Increment))
					delta := nx - x[s]
					x[s] = nx
					for _, e := range in.Sets[s] {
						cov[e] = ctx.Add(cov[e], delta)
					}
					raised = true
				}
			}
			if !raised {
				break
			}
		}
	}
	return x
}

// Greedy is the classical greedy set cover baseline.
func Greedy(in *Instance) []int {
	covered := make([]bool, in.NumElements)
	remaining := in.NumElements
	var cover []int
	used := make([]bool, len(in.Sets))
	for remaining > 0 {
		best, bestGain := -1, 0
		for s := range in.Sets {
			if used[s] {
				continue
			}
			gain := 0
			for _, e := range in.Sets[s] {
				if !covered[e] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = s, gain
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		cover = append(cover, best)
		for _, e := range in.Sets[best] {
			if !covered[e] {
				covered[e] = true
				remaining--
			}
		}
	}
	sort.Ints(cover)
	return cover
}

// checkCover verifies that the chosen sets cover every element.
func checkCover(in *Instance, cover []int) error {
	covered := make([]bool, in.NumElements)
	for _, s := range cover {
		for _, e := range in.Sets[s] {
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			return fmt.Errorf("element %d uncovered", e)
		}
	}
	return nil
}
