package harness

import "fmt"

// Config selects one run.
type Config struct {
	Workload  string
	Seed      int64
	Seconds   float64 // how long passes are replayed for
	Trace     bool    // report the per-layer metrics from a traced pass instead of the end-to-end ones
	Short     bool    // tiny sizes (unit tests)
	SpansPath string  // where a traced run writes its spans ("" = nowhere)
}

// Workload is one recorded script and the reason it exists.
type Workload struct {
	Name string
	Why  string
	run  func(Config) (*Result, error)
}

func engineWorkload(count int, build func(seed int64, short bool) (*scenario, error)) func(Config) (*Result, error) {
	return func(cfg Config) (*Result, error) { return runEngine(cfg, count, build) }
}

// Workloads lists the six workloads in the order BENCHMARK.json names them.
var Workloads = []Workload{
	{"meshB-grow", "paper Fig. 14 regime: +40 vertices per op at P=32 with refinement; layering and the refine LP share the op",
		engineWorkload(2, func(seed int64, short bool) (*scenario, error) {
			return meshGrow(seed, short, size(short, 32, 4), size(short, 40, 3))
		})},
	{"meshB-p128", "the same mesh sequence at P=128: the wide-LP regime, balance and refine LP are nearly the whole op",
		engineWorkload(2, func(seed int64, short bool) (*scenario, error) {
			return meshGrow(seed, short, size(short, 128, 8), size(short, 10, 2))
		})},
	{"meshB-smalledit", "16-edit size-preserving bursts, no refinement: CSR patch and boundary/cut sync do all the work, LP and layering none",
		engineWorkload(4, meshSmallEdit)},
	{"grid-vcycle", "316x316 grid under the multilevel V-cycle: coarsening carries the op on a bounded-degree graph",
		engineWorkload(1, gridVCycle)},
	{"powerlaw-vcycle", "10000-vertex power-law graph under the V-cycle: hubs stall heavy-edge matching, the coarsen layer used differently",
		engineWorkload(1, powerLawVCycle)},
	{"serve-mixed", "edit POSTs beside assignment GETs over real HTTP through internal/serve: queue, coalescing window and JSON around a small engine op",
		runServe},
}

// Run measures one workload.
func Run(cfg Config) (*Result, error) {
	for _, w := range Workloads {
		if w.Name == cfg.Workload {
			return w.run(cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}
