package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"repro/benchmarks/harness"
)

// selfCheck is the acceptance procedure run by hand: for every workload
// (or the one named) it makes two interleaved sets of n runs of this very
// binary, run i of both sets on seed+i, and prints for each end-to-end
// metric the two medians, each set's quartile spread as a share of its
// median, and how much worse the second median is than the first — next to
// the metric's bound. It returns non-zero when a spread (other than
// setup_s's) or a gap exceeds the bound, or a run fails.
func selfCheck(n int, only string, seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := 0
	for _, w := range harness.Workloads {
		if only != "" && only != w.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runOnce(exe, w.Name, seed+int64(i), seconds)
				if err != nil {
					fmt.Printf("%s seed %d set %d: %v\n", w.Name, seed+int64(i), s+1, err)
					bad++
					continue
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%s  (%d runs per set, seeds %d..%d, %g s each)\n", w.Name, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("  %-14s %12s %12s %8s %8s %8s %6s\n", "metric", "median 1", "median 2", "spread1", "spread2", "gap", "bound")
		for _, d := range harness.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := harness.Median(a), harness.Median(b)
			gap := (mb - ma) / ma
			if d.Better == "higher" {
				gap = -gap
			}
			sa, sb := harness.Spread(a), harness.Spread(b)
			verdict := ""
			if gap > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("  %-14s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				d.Name, ma, mb, 100*sa, 100*sb, 100*gap, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func runOnce(exe, workload string, seed int64, seconds float64) (*harness.Result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res harness.Result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
