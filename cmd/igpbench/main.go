// Command igpbench regenerates the paper's evaluation tables and figures
// on the DIME-substitute meshes.
//
// Usage:
//
//	igpbench -table fig11                 # Figure 11 (mesh A, P=32)
//	igpbench -table fig14                 # Figure 14 (mesh B, P=32)
//	igpbench -table speedup               # §4 speedup claim (15–20× at 32)
//	igpbench -table lpsize                # §4 LP-size independence claim
//	igpbench -table baselines             # from-scratch SB / RCB / RGB
//	igpbench -table refine                # refinement-quality ablation
//	igpbench -table serve                 # igpserve latency under load
//	igpbench -table multilevel            # large-graph V-cycle tier (n=10^5)
//	igpbench -table all                   # everything
//
// Flags -p, -ranks, -seed, -solver, -procs and -skipsim adjust the
// experiment. See README.md for example output; the performance record
// is the repo benchmark (scripts/trajectory.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	igp "repro"
	"repro/internal/bench"
	"repro/internal/lp"
	"repro/internal/mesh"
)

func main() {
	table := flag.String("table", "fig11", "table to regenerate: fig11|fig14|speedup|lpsize|baselines|refine|serve|multilevel|all")
	seed := flag.Int64("seed", 1994, "workload seed")
	p := flag.Int("p", 32, "number of partitions")
	ranks := flag.Int("ranks", 32, "simulated machine size")
	solver := flag.String("solver", lp.DefaultSolverName, "sequential simplex: "+strings.Join(igp.SolverNames(), "|"))
	procs := flag.Int("procs", 0, "worker count for the engine's sharded kernels (0 = GOMAXPROCS, 1 = one worker, inline)")
	skipSim := flag.Bool("skipsim", false, "skip simulated parallel runs (no Time-p/Speedup)")
	largeN := flag.Int("n", 100000, "large-graph tier size (table: multilevel)")
	procsList := flag.String("procslist", "", "comma-separated worker counts for the multilevel table (one row set per count, each must reproduce the first; overrides -procs there)")
	flag.Parse()

	// The registry resolves built-ins and any solver an out-of-tree build
	// registered, so -solver accepts every name SolverNames lists.
	s, err := lp.Lookup(*solver)
	if err != nil {
		fmt.Fprintf(os.Stderr, "igpbench: %v\n", err)
		os.Exit(2)
	}
	if *procs < 0 {
		fmt.Fprintf(os.Stderr, "igpbench: -procs %d: worker count must be ≥ 0 (0 = GOMAXPROCS)\n", *procs)
		os.Exit(2)
	}
	cfg := bench.Config{Seed: *seed, P: *p, Ranks: *ranks, Solver: s, Parallelism: *procs, SkipSim: *skipSim}

	run := func(name string) bool { return *table == name || *table == "all" }
	ok := false
	if run("fig11") {
		ok = true
		res, err := bench.Fig11(cfg)
		exitOn(err)
		fmt.Print(bench.Format(res))
	}
	if run("fig14") {
		ok = true
		res, err := bench.Fig14(cfg)
		exitOn(err)
		fmt.Print(bench.Format(res))
	}
	if run("speedup") {
		ok = true
		seq, err := mesh.PaperSequenceA(*seed)
		exitOn(err)
		pts, err := bench.SpeedupCurve(seq, cfg, []int{1, 2, 4, 8, 16, 32})
		exitOn(err)
		fmt.Print(bench.FormatSpeedup(pts, "IGPR on mesh A, first refinement"))
		fmt.Println()
	}
	if run("lpsize") {
		ok = true
		rows, err := bench.LPSizeTable([]int{1071, 2142, 4284, 8568}, cfg)
		exitOn(err)
		fmt.Print(bench.FormatLPSize(rows, cfg.P))
		fmt.Println()
	}
	if run("baselines") {
		ok = true
		seq, err := mesh.PaperSequenceA(*seed)
		exitOn(err)
		rows, err := bench.Baselines(seq, cfg)
		exitOn(err)
		fmt.Print(bench.FormatBaselines(rows, cfg.P))
		fmt.Println()
	}
	if run("serve") {
		ok = true
		// End-to-end service latency (igpserve + loadgen over real HTTP)
		// with several writers per session.
		exitOn(printServe(*seed))
	}
	if run("multilevel") {
		ok = true
		// Large-graph tier: V-cycle cold/idle/warm rows per workload
		// family, repeated at each -procslist worker count.
		// MultilevelTable's own assertions (validity, exact balance, the
		// idle call skips the V-cycle, the cold and warm calls run it, grid
		// warm hierarchy repair, every count reproduces the first count's
		// cut, levels, repair and skip) make the table a CI gate: any
		// violation exits nonzero via exitOn.
		counts, err := parseProcsList(*procsList, *procs)
		exitOn(err)
		rows, err := bench.MultilevelTable(cfg, *largeN, counts)
		exitOn(err)
		fmt.Print(bench.FormatMultilevel(rows, cfg.P))
		fmt.Println()
	}
	if run("refine") {
		ok = true
		seq, err := mesh.PaperSequenceA(*seed)
		exitOn(err)
		q, err := bench.RefineComparison(seq, cfg)
		exitOn(err)
		fmt.Printf("Refinement ablation (mesh A, first refinement, P=%d)\n", cfg.P)
		fmt.Printf("  %-28s %6s\n", "Method", "Cut")
		fmt.Printf("  %-28s %6d\n", "SB from scratch", q.CutSB)
		fmt.Printf("  %-28s %6d\n", "IGP (balance only)", q.CutIGP)
		fmt.Printf("  %-28s %6d\n", "IGPR (LP refinement)", q.CutIGPR)
		fmt.Printf("  %-28s %6d\n", "IGP + greedy (KL/FM-style)", q.CutGreedy)
		fmt.Println()
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "igpbench: unknown table %q\n", *table)
		os.Exit(2)
	}
}

// parseProcsList parses the -procslist flag into worker counts, falling
// back to the single -procs value when unset.
func parseProcsList(list string, procs int) ([]int, error) {
	if list == "" {
		return []int{procs}, nil
	}
	var counts []int
	for _, f := range strings.Split(list, ",") {
		var c int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &c); err != nil || c < 0 {
			return nil, fmt.Errorf("igpbench: -procslist %q: bad worker count %q", list, f)
		}
		counts = append(counts, c)
	}
	return counts, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "igpbench:", err)
		os.Exit(1)
	}
}
