package setcover

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestValidate(t *testing.T) {
	ok := &Instance{NumElements: 3, Sets: [][]int{{0, 1}, {2}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	uncoverable := &Instance{NumElements: 3, Sets: [][]int{{0, 1}}}
	if err := uncoverable.Validate(); err == nil {
		t.Error("uncoverable element accepted")
	}
	bad := &Instance{NumElements: 2, Sets: [][]int{{0, 5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func TestSolveSimpleInstances(t *testing.T) {
	tests := []struct {
		name string
		in   *Instance
		opt  int
	}{
		{"one-set", &Instance{NumElements: 4, Sets: [][]int{{0, 1, 2, 3}}}, 1},
		{"partition", &Instance{NumElements: 4, Sets: [][]int{{0, 1}, {2, 3}}}, 2},
		{"overlap", &Instance{NumElements: 3, Sets: [][]int{{0, 1}, {1, 2}, {0, 2}}}, 2},
		{"singletons", &Instance{NumElements: 3, Sets: [][]int{{0}, {1}, {2}}}, 3},
		{"big-plus-small", &Instance{
			NumElements: 6,
			Sets:        [][]int{{0, 1, 2, 3, 4, 5}, {0}, {1}, {2}},
		}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.in, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkCover(tt.in, res.Cover); err != nil {
				t.Fatal(err)
			}
			bound := res.Bound * float64(tt.opt) * 1.6 // fractional-phase slack
			if float64(len(res.Cover)) > bound+1 {
				t.Errorf("cover size %d far above bound %.2f (OPT=%d)",
					len(res.Cover), bound, tt.opt)
			}
		})
	}
}

func TestSolveValidation(t *testing.T) {
	in := &Instance{NumElements: 1, Sets: [][]int{{0}}}
	if _, err := Solve(in, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Solve(in, 2); err == nil {
		t.Error("eps=2 accepted")
	}
	if _, err := Solve(in, math.NaN()); err == nil {
		t.Error("eps=NaN accepted")
	}
}

func TestSolveEmpty(t *testing.T) {
	res, err := Solve(&Instance{NumElements: 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 0 {
		t.Error("empty instance should yield empty cover")
	}
}

func TestGreedyBaseline(t *testing.T) {
	in := &Instance{NumElements: 5, Sets: [][]int{{0, 1, 2}, {2, 3}, {3, 4}, {4}}}
	cover := Greedy(in)
	if err := checkCover(in, cover); err != nil {
		t.Fatal(err)
	}
	if len(cover) > 3 {
		t.Errorf("greedy used %d sets", len(cover))
	}
}

func TestSolveRandomInstances(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 10; trial++ {
		nElem := 20 + r.IntN(30)
		nSets := 10 + r.IntN(20)
		in := &Instance{NumElements: nElem}
		for s := 0; s < nSets; s++ {
			size := 1 + r.IntN(8)
			set := make([]int, 0, size)
			seen := map[int]bool{}
			for len(set) < size {
				e := r.IntN(nElem)
				if !seen[e] {
					seen[e] = true
					set = append(set, e)
				}
			}
			in.Sets = append(in.Sets, set)
		}
		// Ensure coverage with singletons.
		covered := make([]bool, nElem)
		for _, s := range in.Sets {
			for _, e := range s {
				covered[e] = true
			}
		}
		for e, ok := range covered {
			if !ok {
				in.Sets = append(in.Sets, []int{e})
			}
		}
		res, err := Solve(in, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCover(in, res.Cover); err != nil {
			t.Fatal(err)
		}
		greedy := Greedy(in)
		// The derandomized cover should be in the same ballpark as greedy.
		if len(res.Cover) > 3*len(greedy)+3 {
			t.Errorf("trial %d: cover %d vs greedy %d", trial, len(res.Cover), len(greedy))
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	in := &Instance{NumElements: 10, Sets: [][]int{
		{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8}, {8, 9}, {1, 3, 5}, {0, 9},
	}}
	a, err := Solve(in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cover) != len(b.Cover) {
		t.Fatal("non-deterministic")
	}
	for i := range a.Cover {
		if a.Cover[i] != b.Cover[i] {
			t.Fatal("non-deterministic cover")
		}
	}
}
