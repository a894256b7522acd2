package congest_test

import (
	"fmt"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// floodExample is the worked StepProgram from the package documentation: a
// flood from node 0 that records every node's hop distance. dist is also
// the per-node state: -1 until the node is reached.
type floodExample struct {
	rounds int
	dist   []int
}

func (f *floodExample) Init(nd *congest.Node) bool {
	f.dist[nd.V()] = -1
	if nd.V() == 0 {
		f.dist[0] = 0
		nd.Broadcast([]byte{1})
	}
	return false
}

func (f *floodExample) Step(nd *congest.Node, r int, in []congest.Incoming) bool {
	my := &f.dist[nd.V()]
	if *my < 0 && len(in) > 0 {
		*my = r + 1
	}
	if r+1 >= f.rounds {
		return true
	}
	if *my == r+1 {
		nd.Broadcast([]byte{1})
	}
	return false
}

// ExampleNetwork_RunStepped runs a StepProgram natively on the stackless
// stepped engine; the same program value produces identical results and
// metrics on the goroutine engine via the blocking adapter.
func ExampleNetwork_RunStepped() {
	g := graph.Path(4)
	dist := make([]int, g.N())
	net := congest.NewNetwork(g, congest.Config{Engine: congest.EngineStepped})
	m, err := net.RunStepped(&floodExample{rounds: 3, dist: dist})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("distances:", dist)
	fmt.Println("rounds:", m.Rounds)
	// Output:
	// distances: [0 1 2 3]
	// rounds: 3
}
