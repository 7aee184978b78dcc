package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	igp "repro"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// scenario is one engine workload made concrete for a seed: the pristine
// graph and starting assignment every pass clones, and the recorded edits
// of every op.
type scenario struct {
	base   *graph.Graph
	start  *partition.Assignment
	ops    [][]edit
	warmup int // leading ops that belong to set-up: replayed and checked, timed as part of setup_s
	refine bool
	vcycle bool // WithMultilevel, degenerate start, one settle call in set-up
	seed   int64
	genS   float64 // harness-side generation (mesh/BA generation, RSB, script recording)
	rsbMS  float64 // the from-scratch spectral partition inside genS (0 = none)
}

// options are the product options of the scenario: the library's
// defaults except for what the workload is about, and one worker — the
// workloads are a closed loop with a single caller on a 2-core host.
func (sc *scenario) options() []igp.Option {
	opts := []igp.Option{igp.WithParallelism(1)}
	if sc.refine {
		opts = append(opts, igp.WithRefine())
	}
	if sc.vcycle {
		opts = append(opts, igp.WithMultilevel())
	}
	return opts
}

// size picks the full or the -short dimension.
func size(short bool, full, tiny int) int {
	if short {
		return tiny
	}
	return full
}

// meshGrow builds the paper's regime: a ~10166-vertex mesh partitioned by
// RSB, then refined in a drifting hotspot by +40 vertices per op; the
// engine's graph follows the sequence in place.
func meshGrow(seed int64, short bool, p, steps int) (*scenario, error) {
	t0 := time.Now()
	growth := make([]int, steps)
	for i := range growth {
		growth[i] = size(short, 40, 10)
	}
	seq, err := mesh.GenerateChained(size(short, 10166, 500), growth, seed)
	if err != nil {
		return nil, err
	}
	sc := &scenario{base: seq.Base, refine: true, seed: seed}
	prev := seq.Base
	for _, st := range seq.Steps {
		edits, err := reconcile(prev, st.Graph)
		if err != nil {
			return nil, err
		}
		sc.ops = append(sc.ops, edits)
		prev = st.Graph
	}
	if err := sc.rsb(p); err != nil {
		return nil, err
	}
	sc.genS = time.Since(t0).Seconds()
	return sc, nil
}

// rsb sets the starting assignment to a from-scratch spectral partition.
func (sc *scenario) rsb(p int) error {
	t0 := time.Now()
	part, err := spectral.RSB(sc.base, p, spectral.Options{Seed: sc.seed})
	if err != nil {
		return fmt.Errorf("initial RSB: %w", err)
	}
	sc.rsbMS = float64(time.Since(t0)) / 1e6
	sc.start = &partition.Assignment{Part: part, P: p}
	return nil
}

// bursts records nOps size-preserving k-edit bursts against a scratch
// copy of the base graph.
func (sc *scenario) bursts(nOps, k int) error {
	rng := rand.New(rand.NewSource(sc.seed ^ 0xed17))
	g := sc.base.Clone()
	for i := 0; i < nOps; i++ {
		b, err := recordBurst(g, rng, k)
		if err != nil {
			return err
		}
		sc.ops = append(sc.ops, b)
	}
	return nil
}

func meshSmallEdit(seed int64, short bool) (*scenario, error) {
	t0 := time.Now()
	gen, err := mesh.NewGenerator(size(short, 10166, 500), seed)
	if err != nil {
		return nil, err
	}
	sc := &scenario{base: gen.Mesh().Graph(), seed: seed}
	if err := sc.rsb(size(short, 32, 4)); err != nil {
		return nil, err
	}
	// The first ~360 bursts run in a slower regime that ends for good
	// when the graph's bounded edit journal wraps for the first time and
	// the engine rebuilds its boundary tracker. A long-lived engine pays
	// that once, so those ops are set-up; the ops measure the steady state.
	sc.warmup = size(short, 400, 3)
	if err := sc.bursts(size(short, 800, 8), 16); err != nil {
		return nil, err
	}
	sc.genS = time.Since(t0).Seconds()
	return sc, nil
}

// vcycle builds a multilevel workload: everything starts in partition 0
// (the degenerate start a first-ever call sees), set-up pays the cold
// V-cycle, ops are 8-edit bursts answered by the warm hierarchy.
func vcycle(seed int64, g *graph.Graph, p, nOps int, t0 time.Time) (*scenario, error) {
	sc := &scenario{base: g, refine: true, vcycle: true, seed: seed}
	sc.start = partition.New(g.Order(), p)
	for v := range sc.start.Part {
		sc.start.Part[v] = 0
	}
	if err := sc.bursts(nOps, 8); err != nil {
		return nil, err
	}
	sc.genS = time.Since(t0).Seconds()
	return sc, nil
}

func gridVCycle(seed int64, short bool) (*scenario, error) {
	t0 := time.Now()
	side := size(short, 316, 40)
	return vcycle(seed, graph.Grid(side, side), size(short, 8, 4), size(short, 40, 3), t0)
}

func powerLawVCycle(seed int64, short bool) (*scenario, error) {
	t0 := time.Now()
	g, err := graph.PowerLaw(size(short, 10000, 1500), 4, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return vcycle(seed, g, size(short, 8, 4), size(short, 10, 2), t0)
}

// opRecord is what the first pass learns about one op from the Stats the
// call already returns and from diffing the assignment around it. All of
// it is deterministic in the seed, so one pass suffices.
type opRecord struct {
	fingerprint  uint64
	moved        int // previously assigned vertices whose partition changed
	balanceMoved int
	refineMoved  int
	stages       int
	rounds       int
	pivots       int
	lpVars       int
	lpCons       int
	csrPatched   int
	levels       int
	minShrink    float64
	repaired     bool
	spectralInit bool
	phaseCover   float64 // Σ PhaseTimings ÷ wall clock of the call
	assignMS     float64
}

// pass is the outcome of one replay of the script.
type pass struct {
	setupS float64
	coldMS float64   // first Repartition alone
	opMS   []float64 // wall clock of every op's Repartition call
	cut    int
	heapMB float64
	// spectralInit: the cold call partitioned the coarsest graph from
	// scratch by recursive spectral bisection.
	spectralInit bool
}

// fingerprint hashes an assignment (FNV-1a over the partition ids).
func fingerprint(part []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range part {
		h = (h ^ uint64(uint32(p))) * 1099511628211
	}
	return h
}

// checkState applies the output checks to (g, a): a valid assignment,
// partition sizes exactly on their targets, and the engine's own cut
// equal to the brute-force oracle's. It returns the oracle cut.
func checkState(g *graph.Graph, a *partition.Assignment, engineCut int) (int, error) {
	if err := a.Validate(g); err != nil {
		return 0, err
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	for q := range sizes {
		if sizes[q] != targets[q] {
			return 0, fmt.Errorf("partition %d holds %d vertices, target %d", q, sizes[q], targets[q])
		}
	}
	cut := partition.Cut(g, a).Total
	if cut != engineCut {
		return cut, fmt.Errorf("engine reports cut %d, partition.Cut %d", engineCut, cut)
	}
	return cut, nil
}

func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// replay runs one pass: a fresh clone of the graph and the assignment, a
// fresh engine, set-up, then every op. The first pass (recs == nil on
// entry) applies the full output checks per op and records fingerprints;
// later passes must reproduce those fingerprints bit for bit. With a
// shadow, every op is preceded by the harness-owned traced layer calls.
func (sc *scenario) replay(recs *[]opRecord, sh *shadow, fail *failures) (pass, error) {
	var out pass
	ctx := context.Background()
	first := *recs == nil
	h0 := heapAlloc()
	g := sc.base.Clone()
	a := sc.start.Clone()

	t0 := time.Now()
	eng, err := igp.NewEngine(g, sc.options()...)
	if err != nil {
		return out, err
	}
	defer eng.Close()
	st, err := eng.Repartition(ctx, a)
	out.coldMS = float64(time.Since(t0)) / 1e6
	out.spectralInit = err == nil && st.SpectralInit
	if err == nil && sc.vcycle {
		// Settle call: the cold polish split groups the hierarchy had
		// matched, so the next Update pays a one-time purity sweep. One
		// edit-free call absorbs it; ops then measure the steady state.
		st, err = eng.Repartition(ctx, a)
	}
	out.setupS = time.Since(t0).Seconds()
	if err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	if _, err := checkState(g, a, st.CutAfter.Total); err != nil {
		fail.add("set-up: %v", err)
	}
	if sh != nil {
		if err := sh.bind(g, a); err != nil {
			return out, err
		}
	}

	out.opMS = make([]float64, 0, len(sc.ops)-sc.warmup)
	var prev []int32
	if first {
		*recs = make([]opRecord, len(sc.ops))
	}
	for i, edits := range sc.ops {
		if sh != nil {
			err = sh.op(i-sc.warmup, edits, a)
		} else {
			err = apply(g, edits)
		}
		if err != nil {
			return out, fmt.Errorf("op %d: %w", i, err)
		}
		if first {
			prev = append(prev[:0], a.Part...)
		}
		if sh != nil {
			sh.beginProduct()
		}
		t := time.Now()
		st, err := eng.Repartition(ctx, a)
		d := time.Since(t)
		if sh != nil {
			sh.endProduct(a)
		}
		if i < sc.warmup {
			out.setupS += d.Seconds()
		} else {
			out.opMS = append(out.opMS, float64(d)/1e6)
		}
		if err != nil {
			fail.add("op %d: %v", i, err)
			return out, nil // the script cannot continue past a failed op
		}
		fp := fingerprint(a.Part)
		if !first {
			if fp != (*recs)[i].fingerprint {
				fail.add("op %d: assignment diverged from the first pass", i)
			}
			continue
		}
		if _, err := checkState(g, a, st.CutAfter.Total); err != nil {
			fail.add("op %d: %v", i, err)
		}
		r := opRecord{
			fingerprint:  fp,
			balanceMoved: st.BalanceMoved,
			refineMoved:  st.RefineMoved,
			stages:       st.Stages,
			rounds:       st.RefineRounds,
			pivots:       st.LPIterations,
			lpVars:       st.LPVars,
			lpCons:       st.LPCons,
			csrPatched:   st.CSRPatched,
			levels:       len(st.Levels),
			repaired:     st.HierarchyRepaired,
			phaseCover:   float64(st.PhaseTimings.Total()) / float64(d),
			assignMS:     float64(st.PhaseTimings.Assign) / 1e6,
			minShrink:    minShrink(g.NumVertices(), st.Levels),
		}
		for v, p := range prev {
			if p >= 0 && a.Part[v] != p {
				r.moved++
			}
		}
		(*recs)[i] = r
	}
	cut, err := checkState(g, a, partition.Cut(g, a).Total)
	if err != nil {
		fail.add("final state: %v", err)
	}
	out.cut = cut
	out.heapMB = (heapAlloc() - h0) / (1 << 20)
	return out, nil
}

// minShrink is the worst per-level shrink of a hierarchy: the smallest
// ratio of a level's vertex count to the one above it (1 = no shrink at
// all, the matcher stalled). 0 when there is no hierarchy.
func minShrink(n int, levels []igp.LevelStats) float64 {
	if len(levels) == 0 {
		return 0
	}
	worst := 0.0
	fine := float64(n)
	for _, l := range levels {
		worst = math.Max(worst, float64(l.Vertices)/fine)
		fine = float64(l.Vertices)
	}
	return 1 / worst
}

// machineRef times a fixed integer kernel (best of three): 2^17
// pseudo-random reads over a 16 MB buffer. In the sandbox's slow phases
// (see README.md) its reading rose with the workloads' — a cache-resident
// kernel's did not — so a run made in one is recognisable afterwards.
func machineRef(buf []uint64) float64 {
	best := math.Inf(1)
	mask := uint64(len(buf) - 1)
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<17; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[x&mask] += x
		}
		best = math.Min(best, float64(time.Since(t))/1e6)
	}
	return best
}

// passes replays one pass after another until the run's time budget is
// spent (at least two, so divergence is checked; a traced run keeps a third
// of the budget for its traced pass) or a check fails, timing the machine
// reference kernel before each. It returns the kernel's readings.
func passes(cfg Config, fail *failures, pass func(n int) error) ([]float64, error) {
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		budget = budget * 2 / 3
	}
	var refs []float64
	refBuf := make([]uint64, 1<<21)
	deadline := time.Now().Add(budget)
	for n := 0; (n < 2 || time.Now().Before(deadline)) && fail.n == 0; n++ {
		refs = append(refs, machineRef(refBuf))
		if err := pass(n); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// benchMetrics fills the harness's own diagnostics of a traced run.
func benchMetrics(v values, genS float64, refs, passP50 []float64, tracedP50 float64) {
	v["bench.gen_s"] = genS
	v["bench.machine_ref_ms"] = median(refs)
	v["bench.passes"] = float64(len(passP50))
	v["bench.pass_spread"] = (percentile(passP50, 1) - minOf(passP50)) / minOf(passP50)
	v["bench.trace_overhead_frac"] = tracedP50/v["repart_p50_ms"] - 1
}

// runEngine measures one engine workload. One partition of one mesh is a
// single draw whose cut and op time vary by several percent from seed to
// seed, so a workload pools count independent instances, each built from
// its own sub-seed of the run's seed, and reports over all their ops. It
// replays passes over every instance, folds the per-op minima, and — in a
// traced run — replays one more pass under the shadow tracer.
func runEngine(cfg Config, count int, build func(seed int64, short bool) (*scenario, error)) (*Result, error) {
	sub := rand.New(rand.NewSource(cfg.Seed))
	scs := make([]*scenario, count)
	attempted := 0
	for k := range scs {
		sc, err := build(sub.Int63(), cfg.Short)
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		scs[k] = sc
		attempted += len(sc.ops) - sc.warmup
	}
	var (
		fail     failures
		recs     = make([][]opRecord, len(scs))
		best     []float64
		setups   = make([][]float64, len(scs))
		colds    []float64
		passP50  []float64
		cut      int
		heapMB   float64
		spectral int // instances whose cold call ran the spectral init
	)
	// onePass replays every instance once and returns the pooled op times.
	onePass := func(shs []*shadow) ([]float64, error) {
		var ops []float64
		cut, heapMB, spectral = 0, 0, 0
		for k, sc := range scs {
			var sh *shadow
			if shs != nil {
				sh = shs[k]
				sh.opBase = len(ops)
			}
			p, err := sc.replay(&recs[k], sh, &fail)
			if err != nil {
				return nil, err
			}
			ops = append(ops, p.opMS...)
			setups[k] = append(setups[k], p.setupS)
			colds = append(colds, p.coldMS)
			cut += p.cut
			if p.spectralInit {
				spectral++
			}
			heapMB += p.heapMB / float64(len(scs))
		}
		return ops, nil
	}
	refs, err := passes(cfg, &fail, func(n int) error {
		lastCut := cut
		ops, err := onePass(nil)
		if err != nil || fail.n > 0 {
			return err
		}
		best = minInto(best, ops)
		passP50 = append(passP50, median(ops))
		if n > 0 && cut != lastCut {
			fail.add("pass %d ends at cut %d, the pass before at %d", n, cut, lastCut)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if fail.n > 0 {
		return values{}.result(defs(cfg.Trace), attempted, &fail), nil
	}

	v := values{
		"repart_p50_ms": median(best),
		"repart_per_s":  float64(len(best)) / (sum(best) / 1e3),
		"cut":           float64(cut),
		"heap_mb":       heapMB,
	}
	for _, s := range setups {
		v["setup_s"] += minOf(s)
	}
	if !cfg.Trace {
		return v.result(EndToEnd, attempted, &fail), nil
	}

	coldMS := median(colds) // before the traced pass adds its own
	ts := &traceState{tr: newTracer()}
	shs := make([]*shadow, len(scs))
	for k, sc := range scs {
		shs[k] = &shadow{ts: ts, sc: sc}
	}
	traced, err := onePass(shs)
	if err != nil {
		return nil, err
	}
	if ts.cutMismatch > 0 {
		fail.add("engine.Cut differed from partition.Cut on %d ops of the traced pass", ts.cutMismatch)
	}
	ts.tr.finish()
	if cfg.SpansPath != "" {
		if err := ts.tr.write(cfg.SpansPath, cfg.Workload, cfg.Seed); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	var all []opRecord
	genS := 0.0
	for k, sc := range scs {
		all = append(all, recs[k][sc.warmup:]...)
		genS += sc.genS
		v["spectral.rsb_ms"] += sc.rsbMS / float64(len(scs))
	}
	benchMetrics(v, genS, refs, passP50, median(traced))
	v["spectral.init_count"] = float64(spectral)
	v["engine.cold_ms"] = coldMS
	v["engine.repart_p90_ms"] = percentile(best, 0.9)
	recordMetrics(v, all)
	ts.metrics(v, cfg.Workload == "meshB-p128")
	return v.result(PerLayer, attempted, &fail), nil
}

func defs(trace bool) []MetricDef {
	if trace {
		return PerLayer
	}
	return EndToEnd
}

// recordMetrics derives the count-type per-layer metrics from the Stats
// the product calls returned.
func recordMetrics(v values, recs []opRecord) {
	n := float64(len(recs))
	var cover, assign []float64
	for _, r := range recs {
		v["engine.moved_per_op"] += float64(r.moved) / n
		v["balance.moved_per_op"] += float64(r.balanceMoved) / n
		v["refine.moved_per_op"] += float64(r.refineMoved) / n
		v["layering.stages_per_op"] += float64(r.stages) / n
		v["refine.rounds_per_op"] += float64(r.rounds) / n
		v["lp.pivots_per_op"] += float64(r.pivots) / n
		v["lp.vars"] = math.Max(v["lp.vars"], float64(r.lpVars))
		v["lp.cons"] = math.Max(v["lp.cons"], float64(r.lpCons))
		if r.csrPatched > 0 {
			v["graph.csr_patched_frac"] += 1 / n
		}
		if r.repaired {
			v["coarsen.repaired_frac"] += 1 / n
		}
		cover = append(cover, r.phaseCover)
		assign = append(assign, r.assignMS)
	}
	lastRec := recs[len(recs)-1]
	v["coarsen.levels"] = float64(lastRec.levels)
	v["coarsen.min_shrink"] = lastRec.minShrink
	v["engine.phase_cover"] = median(cover)
	v["engine.assign_ms"] = median(assign)
}
