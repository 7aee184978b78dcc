// Command bench is the repository benchmark: it runs one workload, checks
// every output, and prints every metric by name with its unit; the last
// line of standard output is the JSON object the benchmark driver reads.
//
//	bench --workload meshB-grow --seed 1994 --seconds 10 --trace 0
//	bench -selfcheck 10            # two interleaved sets of 10 runs per workload
//
// See ../../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/benchmarks/harness"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed      = flag.Int64("seed", 1994, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 10, "how long passes are replayed for")
		trace     = flag.Int("trace", 0, "1 = report the per-layer metrics from a traced pass")
		spans     = flag.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>.json)")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare them against the bounds")
	)
	flag.Parse()
	if *selfcheck > 0 {
		os.Exit(selfCheck(*selfcheck, *workload, *seed, *seconds))
	}
	cfg := harness.Config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, SpansPath: *spans}
	if cfg.Trace && cfg.SpansPath == "" {
		cfg.SpansPath = ".bench_build/spans-" + cfg.Workload + ".json"
	}
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	report(os.Stdout, cfg, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the human-readable metric table, then the JSON line.
func report(w *os.File, cfg harness.Config, res *harness.Result) {
	fmt.Fprintf(w, "workload %s  seed %d  ops %d  failed %d\n", cfg.Workload, cfg.Seed, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAIL:", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(w, "%s\n", line)
}
