// Command igprun partitions or incrementally repartitions a graph file.
//
// Partition from scratch with recursive spectral bisection:
//
//	igprun -in mesh.graph -p 32 -mode rsb -out parts.txt
//
// Incrementally repartition a grown graph, reusing a previous assignment,
// with a hard wall-clock budget on the repair:
//
//	igprun -in mesh2.graph -p 32 -mode igpr -prev parts.txt -timeout 2s -out parts2.txt
//
// The assignment format is one "vertex partition" pair per line with an
// optional "igp-assignment <order> <P>" header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	igp "repro"
)

func main() {
	in := flag.String("in", "", "input graph file (required)")
	prev := flag.String("prev", "", "previous assignment file (required for igp/igpr)")
	out := flag.String("out", "", "output assignment file (default stdout)")
	p := flag.Int("p", 32, "number of partitions")
	mode := flag.String("mode", "rsb", "rsb | igp | igpr")
	seed := flag.Int64("seed", 1, "seed for spectral starts")
	solver := flag.String("solver", "", "simplex: network|dense (empty = the default)")
	tol := flag.Int("tol", 0, "allowed per-partition deviation from the target size")
	batches := flag.Int("batches", 1, "reveal new vertices in this many batches")
	timeout := flag.Duration("timeout", 0, "abort the repartition after this long (0 = no limit)")
	verbose := flag.Bool("v", false, "stream per-stage progress to stderr")
	flag.Parse()

	if *in == "" {
		fail("missing -in")
	}
	f, err := os.Open(*in)
	exitOn(err)
	g, err := igp.ReadGraph(f)
	f.Close()
	exitOn(err)

	var a *igp.Assignment
	switch *mode {
	case "rsb":
		a, err = igp.PartitionRSB(g, *p, *seed)
		exitOn(err)
	case "igp", "igpr":
		if *prev == "" {
			fail("mode " + *mode + " requires -prev")
		}
		pf, err := os.Open(*prev)
		exitOn(err)
		a, err = igp.ReadAssignment(pf, g.Order(), *p)
		pf.Close()
		exitOn(err)

		opts := []igp.Option{
			igp.WithSolver(*solver),
			igp.WithTolerance(*tol),
			igp.WithBatches(*batches),
		}
		if *mode == "igpr" {
			opts = append(opts, igp.WithRefine())
		}
		if *verbose {
			opts = append(opts, igp.WithObserver(func(ev igp.Event) {
				if ev.Kind == igp.EventEnd && ev.Phase == igp.PhaseBalance {
					fmt.Fprintf(os.Stderr, "igprun: stage %d: ε=%g moved=%d, %d partitions layered to full depth, %d LP solves, in %v\n",
						ev.Stage, ev.Epsilon, ev.Moved, ev.Deepened, ev.LPSolves, ev.Elapsed)
				}
			}))
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		st, err := igp.Repartition(ctx, g, a, opts...)
		if errors.Is(err, igp.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "igprun: timed out after %v: %v\n", *timeout, err)
			os.Exit(3)
		}
		exitOn(err)
		fmt.Fprintf(os.Stderr, "igprun: %d new vertices, %d stages, %d moved, LP v=%d c=%d (%d pivots), %v\n",
			st.NewAssigned, st.Stages, st.BalanceMoved+st.RefineMoved, st.LPVars, st.LPCons, st.LPIterations, st.Elapsed)
		pt := st.PhaseTimings
		fmt.Fprintf(os.Stderr, "igprun: phases: assign=%v layer=%v balance=%v refine=%v\n",
			pt.Assign, pt.Layer, pt.Balance, pt.Refine)
		if *verbose {
			fmt.Fprintf(os.Stderr, "igprun: syncs: %d assignment diffs (the rest followed the write log), %d CSR refreshes patched, %d cut reports summed, %d reused\n",
				st.SyncDiffs, st.CSRPatched, st.CutIncremental, st.CutReused)
		}
		if *verbose && st.VCycleSkipped {
			fmt.Fprintln(os.Stderr, "igprun: v-cycle: skipped (balanced)")
		}
		if *verbose && st.RefineStop != "" {
			fmt.Fprintf(os.Stderr, "igprun: refine: cut weight after each round %v, kept %g; vertices moved per round %v; %d loose, stop %s\n",
				st.RoundCuts, st.CutAfter.TotalWeight, st.RoundMoved, st.RefineStrictFrom, st.RefineStop)
		}
	default:
		fail("unknown mode " + *mode)
	}

	cut := igp.Cut(g, a)
	fmt.Fprintf(os.Stderr, "igprun: |V|=%d |E|=%d P=%d cutset total=%d max=%.0f min=%.0f imbalance=%.3f\n",
		g.NumVertices(), g.NumEdges(), *p, cut.Total, cut.Max, cut.Min, igp.Imbalance(g, a))

	if *out == "" {
		exitOn(igp.WriteAssignment(os.Stdout, a))
		return
	}
	w, err := os.Create(*out)
	exitOn(err)
	// Close explicitly: a file that fails to close may not hold the
	// assignment, and that must be an error exit.
	err = igp.WriteAssignment(w, a)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	exitOn(err)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "igprun:", msg)
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "igprun:", err)
		os.Exit(1)
	}
}
