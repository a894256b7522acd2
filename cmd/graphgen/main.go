// graphgen generates benchmark graphs and prints their structural
// properties. Output going to a path ending in .csrg is written in the
// binary zero-copy format (mdsrun and mdsbench memory-map it back); any
// other destination gets the text edge-list format, overridable with
// -format. With -smoke it also drives a broadcast-and-fold program over
// the generated graph on the default (stepped) engine, so generated
// workloads can be sanity-checked — and timed — before feeding them to
// mdsrun:
//
//	go run ./cmd/graphgen -family disk -n 200 -o disk200.txt
//	go run ./cmd/graphgen -family torus -n 1000000 -o torus1m.csrg
//	go run ./cmd/graphgen -family torus -n 1000000 -smoke
//	go run ./cmd/graphgen -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

func main() {
	family := flag.String("family", "gnp", "graph family")
	n := flag.Int("n", 100, "graph size")
	seed := flag.Uint64("seed", 1, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	format := flag.String("format", "auto",
		"output format: auto (by -o extension: .csrg = binary, else text) | text | csrg")
	list := flag.Bool("list", false, "list available families")
	stats := flag.Bool("stats", false, "print properties instead of the graph")
	smoke := flag.Bool("smoke", false, "run a 16-round broadcast-and-fold over the graph instead of printing it")
	flag.Parse()

	if *list {
		for _, f := range graph.Families() {
			fmt.Println(f)
		}
		return
	}
	g, err := graph.Named(*family, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if *smoke {
		runSmoke(g)
		return
	}
	if *stats {
		_, comps := g.Components()
		fmt.Printf("family=%s n=%d m=%d Δ=%d components=%d", *family, g.N(), g.M(), g.MaxDegree(), comps)
		if comps == 1 {
			fmt.Printf(" diameter=%d", g.Diameter())
		}
		fmt.Println()
		return
	}
	binary := false
	switch *format {
	case "auto":
		binary = strings.HasSuffix(*out, ".csrg")
	case "text":
	case "csrg":
		binary = true
	default:
		log.Fatalf("graphgen: unknown -format %q (formats: auto, text, csrg)", *format)
	}
	if *out == "" {
		if binary {
			log.Fatal("graphgen: -format csrg needs -o (refusing to write binary to a terminal)")
		}
		if err := g.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if binary {
		if err := g.WriteCSRGFile(*out); err != nil {
			log.Fatal(err)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// smokeStep is a 16-round broadcast-and-fold (the paper's Part I/II message
// pattern) with an order-sensitive accumulator, so the printed checksum is
// a determinism witness: it must be identical on every engine. Each node's
// accumulator is its out entry.
type smokeStep struct{ out []int64 }

const smokeRounds = 16

func (s *smokeStep) Init(nd *congest.Node) bool {
	acc := &s.out[nd.V()]
	*acc = nd.ID()
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), *acc&0x3fff))
	return false
}

func (s *smokeStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	acc := &s.out[nd.V()]
	for i, msg := range in {
		v, _ := congest.Varint(msg.Payload, 0)
		*acc = *acc*31 + v*int64(i+1)
	}
	if round+1 >= smokeRounds {
		return true
	}
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), *acc&0x3fff))
	return false
}

func runSmoke(g *graph.Graph) {
	net := congest.NewNetwork(g, congest.Config{})
	out := make([]int64, g.N())
	start := time.Now()
	m, err := net.RunStepped(&smokeStep{out: out})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	sum := int64(0)
	for _, x := range out {
		sum = sum*131 + x
	}
	fmt.Printf("graph: %v\n", g)
	fmt.Printf("rounds=%d messages=%d bits=%d\n", m.Rounds, m.Messages, m.Bits)
	fmt.Printf("elapsed=%v (%.0f node-rounds/s)\n", elapsed.Round(time.Millisecond),
		float64(g.N())*float64(m.Rounds)/elapsed.Seconds())
	fmt.Printf("checksum=%d (engine-independent)\n", sum)
}
