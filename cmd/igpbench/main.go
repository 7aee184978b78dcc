// Command igpbench regenerates the paper's evaluation tables and figures
// on the DIME-substitute meshes.
//
// Usage:
//
//	igpbench -table fig11                 # Figure 11 (mesh A, P=32)
//	igpbench -table fig14                 # Figure 14 (mesh B, P=32)
//	igpbench -table speedup               # §4 speedup claim (15–20× at 32)
//	igpbench -table lpsize                # §4 LP-size independence claim
//	igpbench -table refine                # refinement-quality ablation
//	igpbench -table solvers               # network vs its dense oracle: pivots, time, cut
//	igpbench -table serve                 # igpserve latency under load
//	igpbench -table multilevel            # large-graph V-cycle tier (n=10^5)
//	igpbench -table all                   # everything
//
// Flags -p, -ranks, -seed, -solver and -skipsim adjust the experiment.
// See README.md for example output.
package main

import (
	"context"
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
	table := flag.String("table", "fig11", "table to regenerate: fig11|fig14|speedup|lpsize|baselines|refine|solvers|incremental|phases|serve|multilevel|all")
	seed := flag.Int64("seed", 1994, "workload seed")
	p := flag.Int("p", 32, "number of partitions")
	ranks := flag.Int("ranks", 32, "simulated machine size")
	solver := flag.String("solver", lp.DefaultSolverName, "sequential simplex: "+strings.Join(igp.SolverNames(), "|"))
	procs := flag.Int("procs", 0, "worker count for the engine's sharded kernels (0 = GOMAXPROCS, 1 = one worker, inline)")
	skipSim := flag.Bool("skipsim", false, "skip simulated parallel runs (no Time-p/Speedup)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (tables: incremental, solvers, serve, multilevel)")
	largeN := flag.Int("n", 100000, "large-graph tier size (table: multilevel)")
	check := flag.Bool("check", false, "multilevel CI assert mode: smoke size, no flat baseline, nonzero exit on any contract failure")
	procsList := flag.String("procslist", "", "comma-separated worker counts for the multilevel table (one row set per count; overrides -procs there)")
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
	if run("phases") {
		ok = true
		// Machine-readable per-phase timings for the bench.sh trajectory:
		// one JSON object, mesh A first refinement under IGPR.
		exitOn(printPhases(*seed, *p, *solver, *procs))
		if *table == "phases" {
			return
		}
	}
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
	if run("solvers") {
		ok = true
		seq, err := mesh.PaperSequenceA(*seed)
		exitOn(err)
		rows, err := bench.SolverComparison(seq, cfg, igp.SolverNames())
		exitOn(err)
		if *table == "solvers" && *jsonOut {
			fmt.Println(solversJSON(rows, cfg.P))
			return
		}
		fmt.Print(bench.FormatSolvers(rows, cfg.P))
		fmt.Println()
	}
	if run("incremental") {
		ok = true
		workloads := []struct {
			name  string
			baseN int
		}{{"meshA", 1071}, {"meshB", 10166}}
		var records []string
		for _, wl := range workloads {
			g, rows, err := bench.IncrementalEdits(cfg, wl.baseN, []int{1, 4, 16, 64, 256}, 5)
			exitOn(err)
			if *table == "incremental" && *jsonOut {
				records = append(records, incrementalJSON(wl.name, g, rows, cfg.P))
				continue
			}
			fmt.Print(bench.FormatIncremental(wl.name, g, rows, cfg.P))
			fmt.Println()
		}
		if *table == "incremental" && *jsonOut {
			fmt.Printf("[%s]\n", strings.Join(records, ", "))
			return
		}
	}
	if run("serve") {
		ok = true
		// End-to-end service latency (igpserve + loadgen over real HTTP);
		// JSON rows become the serve_latency record in BENCH_<n>.json.
		exitOn(printServe(*seed, *jsonOut))
		if *table == "serve" {
			return
		}
	}
	if run("multilevel") {
		ok = true
		// Large-graph tier: V-cycle cold/idle/warm rows per workload
		// family, plus the flat RSB from-scratch baseline (minutes of wall
		// clock) when not in -check mode. MultilevelTable's own assertions
		// (validity, exact balance, the idle call skips the V-cycle, the
		// cold and warm calls run it, grid warm hierarchy repair) make
		// -check a CI gate: any violation exits nonzero via exitOn.
		// -procslist repeats the tier at each worker count so one run
		// records the scaling curve; the results are bit-identical across
		// counts (the determinism contract), so repeat runs only add Time
		// columns. The flat baseline runs once: its wall clock is the
		// from-scratch anchor, not part of the scaling curve.
		counts, err := parseProcsList(*procsList, *procs)
		exitOn(err)
		var rows []bench.MultilevelRow
		for i, pc := range counts {
			pcfg := cfg
			pcfg.Parallelism = pc
			r, err := bench.MultilevelTable(pcfg, *largeN, !*check && i == 0)
			exitOn(err)
			rows = append(rows, r...)
		}
		if *table == "multilevel" && *jsonOut {
			fmt.Println(multilevelJSON(rows, cfg.P))
			return
		}
		fmt.Print(bench.FormatMultilevel(rows, cfg.P))
		fmt.Println()
		if *table == "multilevel" {
			return
		}
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

// incrementalJSON renders one incremental-edit workload as a JSON
// object, the record scripts/bench.sh folds into BENCH_<n>.json: warm
// k-edit Repartition cost versus the FullRefresh baseline per delta
// size, plus the delta-pipeline counters of the warm engine.
func incrementalJSON(name string, g *igp.Graph, rows []bench.EditRow, p int) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf(`{"k": %d, "warm_ns": %d, "full_ns": %d, "csr_patched": %d, "cut_incremental": %d}`,
			r.K, r.WarmTime.Nanoseconds(), r.FullTime.Nanoseconds(), r.CSRPatched, r.CutIncremental)
	}
	return fmt.Sprintf(`{"workload": %q, "p": %d, "n": %d, "m": %d, "rows": [%s]}`,
		name, p, g.NumVertices(), g.NumEdges(), strings.Join(parts, ", "))
}

// solversJSON renders the per-solver comparison as one JSON object, the
// record scripts/bench.sh folds into BENCH_<n>.json: per registered
// solver, the IGPR wall clock, LP iteration total and cut quality.
func solversJSON(rows []bench.SolverRow, p int) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf(`{"solver": %q, "time_ns": %d, "stages": %d, "lp_iterations": %d, "cut_total": %d, "balanced": %v}`,
			r.Name, r.Time.Nanoseconds(), r.Stages, r.LPIterations, r.Cut.Total, r.Balanced)
	}
	return fmt.Sprintf(`{"workload": "meshA-step1-igpr", "p": %d, "rows": [%s]}`,
		p, strings.Join(parts, ", "))
}

// multilevelJSON renders the large-graph tier as one JSON object, the
// record scripts/bench.sh folds into BENCH_<n>.json: per workload
// family, mode and worker count, wall clock, resulting cut, hierarchy
// depth, whether the warm path journal-repaired the hierarchy and
// whether the call arrived balanced and skipped the V-cycle. The procs
// field is the scaling axis benchdiff diffs along (-xprocs).
func multilevelJSON(rows []bench.MultilevelRow, p int) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf(`{"workload": %q, "n": %d, "m": %d, "mode": %q, "procs": %d, "time_ns": %d, "cut": %g, "levels": %d, "repaired": %v, "skipped": %v, "balanced": %v}`,
			r.Workload, r.N, r.E, r.Mode, r.Procs, r.Time.Nanoseconds(), r.Cut, r.Levels, r.Repaired, r.Skipped, r.Balanced)
	}
	return fmt.Sprintf(`{"p": %d, "rows": [%s]}`, p, strings.Join(parts, ", "))
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

// printPhases repartitions mesh A's first refinement with IGPR through
// the public API and emits Stats.PhaseTimings as one JSON object, the
// record scripts/bench.sh folds into BENCH_<n>.json. procs selects the
// sharded-kernel worker count (0 = GOMAXPROCS); the reported "procs" is
// the resolved Stats.Parallelism and "worker_busy_ns" its per-worker
// roll-up.
func printPhases(seed int64, p int, solver string, procs int) error {
	seq, err := mesh.PaperSequenceA(seed)
	if err != nil {
		return err
	}
	a, err := igp.PartitionRSB(seq.Base, p, seed)
	if err != nil {
		return err
	}
	g := seq.Steps[0].Graph
	opts := []igp.Option{igp.WithRefine(), igp.WithSolver(solver)}
	if procs > 0 {
		opts = append(opts, igp.WithParallelism(procs))
	}
	st, err := igp.Repartition(context.Background(), g, a, opts...)
	if err != nil {
		return err
	}
	pt := st.PhaseTimings
	busy := make([]string, len(st.WorkerBusy))
	for i, d := range st.WorkerBusy {
		busy[i] = fmt.Sprintf("%d", d.Nanoseconds())
	}
	fmt.Printf(`{"workload": "meshA-step1-igpr", "p": %d, "solver": %q, "procs": %d, `+
		`"assign_ns": %d, "layer_ns": %d, "balance_ns": %d, "refine_ns": %d, `+
		`"elapsed_ns": %d, "stages": %d, "lp_iterations": %d, "moved": %d, `+
		`"worker_busy_ns": [%s]}`+"\n",
		p, solver, st.Parallelism, pt.Assign.Nanoseconds(), pt.Layer.Nanoseconds(),
		pt.Balance.Nanoseconds(), pt.Refine.Nanoseconds(), st.Elapsed.Nanoseconds(),
		st.Stages, st.LPIterations, st.BalanceMoved+st.RefineMoved,
		strings.Join(busy, ", "))
	return nil
}
