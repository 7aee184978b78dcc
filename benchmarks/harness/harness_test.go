package harness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mesh"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

func TestMinInto(t *testing.T) {
	best := minInto(nil, []float64{3, 9, 4})
	best = minInto(best, []float64{5, 2, 4})
	best = minInto(best, []float64{4, 7, 1})
	if want := []float64{3, 2, 1}; !reflect.DeepEqual(best, want) {
		t.Errorf("per-op minima = %v, want %v", best, want)
	}
	// Percentiles and throughput are taken over the minima.
	if got := median(best); got != 2 {
		t.Errorf("median of minima = %v, want 2", got)
	}
	if got := float64(len(best)) / (sum(best) / 1e3); got != 500 {
		t.Errorf("ops per second over minima = %v, want 500", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1", got)
	}
}

// TestReconcile: replaying the reconcile script on the previous mesh step
// yields exactly the next step graph.
func TestReconcile(t *testing.T) {
	seq, err := mesh.GenerateChained(300, []int{8, 8, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := seq.Base.Clone()
	prev := seq.Base
	for i, st := range seq.Steps {
		edits, err := reconcile(prev, st.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if len(edits) == 0 {
			t.Fatalf("step %d: empty script", i)
		}
		if err := apply(g, edits); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("step %d: reconciled graph invalid: %v", i, err)
		}
		if err := sameGraph(g, st.Graph); err != nil {
			t.Fatalf("step %d: reconciled graph is not the step graph: %v", i, err)
		}
		prev = st.Graph
	}
}

func names(defs []MetricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

// TestWorkloadsShort runs every workload at -short sizes, untraced and
// traced, and holds the printed metric names to the two tables.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			cfg := Config{Workload: w.Name, Seed: 7, Seconds: 0.05, Trace: trace, Short: true}
			if trace {
				cfg.SpansPath = filepath.Join(t.TempDir(), "spans.json")
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			if want := names(defs(trace)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metric names/units %v, want %v", w.Name, trace, got, want)
			}
			if trace {
				var file struct {
					Spans []span `json:"spans"`
				}
				raw, err := os.ReadFile(cfg.SpansPath)
				if err == nil {
					err = json.Unmarshal(raw, &file)
				}
				if err != nil || len(file.Spans) == 0 {
					t.Errorf("%s: spans file: %d spans, %v", w.Name, len(file.Spans), err)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %q / %q", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded=%v)", kind, d.Name, m.Bound, d.Bound, bounded)
			}
		}
	}
	check("end_to_end", file.EndToEnd, EndToEnd, true)
	check("per_layer", file.PerLayer, PerLayer, false)
}
