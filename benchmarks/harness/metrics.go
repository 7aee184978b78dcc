package harness

import "fmt"

// MetricDef names one metric the benchmark reports. The two tables below
// are mirrored, name for name, by BENCHMARK.json (a unit test holds them
// together).
type MetricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// EndToEnd are the metrics a user of the partitioner pays for; every
// workload reports all of them with tracing off.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"repart_p50_ms", "ms", "lower", 0.25},
	{"repart_per_s", "1/s", "higher", 0.25},
	{"cut", "edges", "lower", 0.12},
	{"heap_mb", "MB", "lower", 0.05},
}

// lpSolvers are the registry names the LP layer is compared over. The list
// is fixed (BENCHMARK.json names the metrics); a solver a later change
// unregisters simply reads 0.
var lpSolvers = []string{"bounded", "dense", "dual-warm", "mwu", "revised"}

// PerLayer are the traced run's metrics, prefixed with the module
// (internal/<layer>) they describe. Every workload prints every name; a
// layer a workload does not exercise reads 0.
var PerLayer = func() []MetricDef {
	m := []MetricDef{
		{"graph.reconcile_us", "us", "lower", 0},
		{"graph.csr_refresh_us", "us", "lower", 0},
		{"graph.csr_patched_frac", "frac", "higher", 0},

		{"engine.sync_us", "us", "lower", 0},
		{"engine.cut_us", "us", "lower", 0},
		{"partition.cut_full_us", "us", "lower", 0},
		{"engine.assign_ms", "ms", "lower", 0},
		{"engine.phase_cover", "frac", "higher", 0},
		{"engine.allocs_per_op", "count", "lower", 0},
		{"engine.cold_ms", "ms", "lower", 0},
		{"engine.repart_p90_ms", "ms", "lower", 0},
		{"engine.moved_per_op", "vertices", "lower", 0},

		{"layering.layer_ms", "ms", "lower", 0},
		{"layering.stages_per_op", "count", "lower", 0},

		{"balance.formulate_us", "us", "lower", 0},
		{"balance.solve_ms", "ms", "lower", 0},
		{"balance.moved_per_op", "vertices", "lower", 0},

		{"refine.gains_us", "us", "lower", 0},
		{"refine.formulate_us", "us", "lower", 0},
		{"refine.solve_ms", "ms", "lower", 0},
		{"refine.rounds_per_op", "count", "lower", 0},
		{"refine.moved_per_op", "vertices", "lower", 0},

		{"lp.pivots_per_op", "count", "lower", 0},
		{"lp.vars", "count", "lower", 0},
		{"lp.cons", "count", "lower", 0},
		{"lp.us_per_pivot", "us", "lower", 0},

		{"coarsen.update_ms", "ms", "lower", 0},
		{"coarsen.solve_coarsest_ms", "ms", "lower", 0},
		{"coarsen.uncoarsen_ms", "ms", "lower", 0},
		{"coarsen.repaired_frac", "frac", "higher", 0},
		{"coarsen.levels", "count", "higher", 0},
		{"coarsen.min_shrink", "ratio", "higher", 0},

		{"spectral.rsb_ms", "ms", "lower", 0},
		{"spectral.init_count", "count", "lower", 0},

		{"serve.edit_p50_ms", "ms", "lower", 0},
		{"serve.submit_ms", "ms", "lower", 0},
		{"serve.http_overhead_ms", "ms", "lower", 0},
		{"serve.queue_wait_ms", "ms", "lower", 0},
		{"serve.repartition_ms", "ms", "lower", 0},
		{"serve.coalesce_ratio", "ratio", "higher", 0},
		{"serve.read_p50_us", "us", "lower", 0},
		{"serve.read_bytes", "bytes", "lower", 0},
		{"serve.req_per_s", "1/s", "higher", 0},
		{"serve.shed", "count", "lower", 0},

		{"bench.gen_s", "s", "lower", 0},
		{"bench.machine_ref_ms", "ms", "lower", 0},
		{"bench.passes", "count", "higher", 0},
		{"bench.pass_spread", "frac", "lower", 0},
		{"bench.trace_overhead_frac", "frac", "lower", 0},
	}
	for _, s := range lpSolvers {
		m = append(m,
			MetricDef{"lp.solve_ms." + s, "ms", "lower", 0},
			MetricDef{"lp.pivots." + s, "count", "lower", 0})
	}
	return m
}()

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports; marshalled, it is the JSON line the
// benchmark driver reads.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	// Failures holds the first few failure messages (not part of the
	// JSON line; printed above it).
	Failures []string `json:"-"`
}

// values collects metric values by name while a run is measured.
type values map[string]float64

// result packs v into a Result carrying exactly the metrics of defs (a
// name v lacks reads 0).
func (v values) result(defs []MetricDef, attempted int, fail *failures) *Result {
	r := &Result{Correct: fail.n == 0, Attempted: attempted, Failed: min(fail.n, attempted),
		Metrics: make(map[string]Metric, len(defs)), Failures: fail.msgs}
	for _, d := range defs {
		r.Metrics[d.Name] = Metric{Value: v[d.Name], Unit: d.Unit}
	}
	return r
}

// failures counts failed checks and keeps the first few messages.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}
