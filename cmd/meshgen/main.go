// Command meshgen generates the DIME-substitute adaptive-mesh sequences
// used by the experiments and writes each step as a graph file.
//
//	meshgen -set A -outdir data/      # paper mesh A: 1071 + 25/25/31/40
//	meshgen -set B -outdir data/      # paper mesh B: 10166 + 48/139/229/672
//	meshgen -n 2000 -steps 3 -grow 50 # custom chained sequence
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/mesh"
)

func main() {
	set := flag.String("set", "", "paper mesh set: A or B (overrides -n/-steps/-grow)")
	n := flag.Int("n", 1000, "base mesh size for custom sequences")
	steps := flag.Int("steps", 3, "number of refinements for custom sequences")
	grow := flag.Int("grow", 40, "vertices added per refinement for custom sequences")
	seed := flag.Int64("seed", 1994, "generator seed")
	outdir := flag.String("outdir", ".", "output directory")
	flag.Parse()

	var seq *mesh.Sequence
	var name string
	var err error
	switch *set {
	case "A", "a":
		name = "meshA"
		seq, err = mesh.PaperSequenceA(*seed)
	case "B", "b":
		name = "meshB"
		seq, err = mesh.PaperSequenceB(*seed)
	case "":
		if *steps < 0 || *grow < 0 {
			fmt.Fprintf(os.Stderr, "meshgen: -steps %d -grow %d: both must be ≥ 0\n", *steps, *grow)
			flag.Usage()
			os.Exit(2)
		}
		name = "mesh"
		growth := make([]int, *steps)
		for i := range growth {
			growth[i] = *grow
		}
		seq, err = mesh.GenerateChained(*n, growth, *seed)
	default:
		fmt.Fprintf(os.Stderr, "meshgen: unknown set %q\n", *set)
		os.Exit(2)
	}
	exitOn(err)

	write := func(path string, g *graph.Graph) {
		f, err := os.Create(path)
		exitOn(err)
		// Close explicitly: a file that fails to close may not hold the
		// graph, and that must be an error exit.
		err = graph.Write(f, g)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		exitOn(err)
		fmt.Printf("meshgen: wrote %s (|V|=%d |E|=%d)\n", path, g.NumVertices(), g.NumEdges())
	}
	exitOn(os.MkdirAll(*outdir, 0o755))
	write(filepath.Join(*outdir, name+"_base.graph"), seq.Base)
	for i, st := range seq.Steps {
		write(filepath.Join(*outdir, fmt.Sprintf("%s_step%d.graph", name, i+1)), st.Graph)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshgen:", err)
		os.Exit(1)
	}
}
