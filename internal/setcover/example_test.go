package setcover_test

import (
	"fmt"
	"math/rand/v2"

	"congestds/internal/setcover"
)

// ExampleSolve applies the dominating set machinery to set cover
// (Section 5) on a synthetic service-placement instance: elements are city
// blocks, sets are candidate facility locations covering nearby blocks.
func ExampleSolve() {
	r := rand.New(rand.NewPCG(11, 13))
	const blocks = 400
	in := &setcover.Instance{NumElements: blocks}
	// 120 candidate facilities, each covering a random cluster of blocks.
	for f := 0; f < 120; f++ {
		centre := r.IntN(blocks)
		size := 3 + r.IntN(15)
		seen := map[int]bool{}
		var set []int
		for len(set) < size {
			e := (centre + r.IntN(25) - 12 + blocks) % blocks
			if !seen[e] {
				seen[e] = true
				set = append(set, e)
			}
		}
		in.Sets = append(in.Sets, set)
	}
	// Guarantee coverability.
	covered := make([]bool, blocks)
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

	res, err := setcover.Solve(in, 0.5)
	if err != nil {
		fmt.Println(err)
		return
	}
	greedy := setcover.Greedy(in)
	fmt.Printf("blocks=%d candidate facilities=%d max coverage=%d\n",
		blocks, len(in.Sets), in.MaxSetSize())
	fmt.Printf("deterministic cover: %d facilities (fractional size %.2f, rounding bound 1+ln(smax+1)=%.2f)\n",
		len(res.Cover), res.FractionalSize, res.Bound)
	fmt.Printf("greedy baseline:     %d facilities\n", len(greedy))
	// Output:
	// blocks=400 candidate facilities=139 max coverage=17
	// deterministic cover: 103 facilities (fractional size 89.77, rounding bound 1+ln(smax+1)=3.89)
	// greedy baseline:     82 facilities
}
