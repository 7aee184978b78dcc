package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/balance"
	"repro/internal/coarsen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/refine"
)

// shadow is the traced pass's view into the layers. The product call
// (Engine.Repartition) is opaque from outside, so before each op's
// product call the harness walks the same pipeline itself on a copy of the
// assignment — assign, V-cycle, layer → balance LP stages, refinement
// rounds — through each layer's public functions, one span per call, with
// its own shadow engine, hierarchy and arenas bound to the same graph.
// The shadow reads the graph and never writes it; the product call that
// follows sees exactly what an untraced pass sees.
type shadow struct {
	ts     *traceState
	sc     *scenario
	g      *graph.Graph
	opBase int // index of the instance's first op among the workload's pooled ops

	se   *engine.Engine // Boundary / Cut / Layer / Gains
	hier *coarsen.Hierarchy
	sa   *partition.Assignment
	csr  *graph.CSR

	solver  tracedSolver
	bal     balance.Arena
	flows   []balance.Flow
	drive   refine.LPArena // the arena refine.Drive formulates into
	form    refine.LPArena // the harness-owned Formulate span's arena
	best    []int32
	sizes   []int
	targets []int

	product int    // open engine.repartition span
	mallocs uint64 // runtime Mallocs when it opened
}

// traceState is what the traced pass accumulates across a workload's
// instances: the spans, and the counts read beside them.
type traceState struct {
	tr          *tracer
	allocs      []float64     // heap allocations of each product call
	pivots      int           // simplex pivots under the lp.solve spans
	recorded    []*lp.Problem // the first refinement LPs, for the solver comparison
	cutMismatch int
}

// maxRecordedLPs bounds the refine LPs kept for the solver comparison:
// the first rounds of the first ops, in order, so a warm-started solver
// sees the related sequence it is built for.
const maxRecordedLPs = 16

// tracedSolver wraps the session solver: every Solve is an lp.solve span
// (under a refine.solve span when refinement drives it), pivots are
// summed, and refinement LPs are recorded for the solver comparison.
type tracedSolver struct {
	lp.Solver
	ts       *traceState
	inRefine bool
}

func (s *tracedSolver) Solve(ctx context.Context, p *lp.Problem) (*lp.Solution, error) {
	tr := s.ts.tr
	outer := -1
	if s.inRefine {
		outer = tr.begin("refine.solve")
		if len(s.ts.recorded) < maxRecordedLPs {
			s.ts.recorded = append(s.ts.recorded, cloneProblem(p))
		}
	}
	id := tr.begin("lp.solve")
	sol, err := s.Solver.Solve(ctx, p)
	tr.end(id)
	if outer >= 0 {
		tr.end(outer)
	}
	if sol != nil {
		s.ts.pivots += sol.Iterations
	}
	return sol, err
}

func cloneProblem(p *lp.Problem) *lp.Problem {
	q := &lp.Problem{
		Sense: p.Sense,
		Obj:   append([]float64(nil), p.Obj...),
		Upper: append([]float64(nil), p.Upper...),
		Cons:  make([]lp.Constraint, len(p.Cons)),
	}
	for i, c := range p.Cons {
		q.Cons[i] = lp.Constraint{Terms: append([]lp.Term(nil), c.Terms...), Rel: c.Rel, RHS: c.RHS}
	}
	return q
}

// bind attaches the shadow to the traced pass's graph after set-up and
// warms its engine, snapshot and hierarchy on the settled assignment.
func (sh *shadow) bind(g *graph.Graph, a *partition.Assignment) error {
	ctx := context.Background()
	base, err := lp.Lookup("")
	if err != nil {
		return err
	}
	sh.g = g
	sh.solver = tracedSolver{Solver: lp.Session(base), ts: sh.ts}
	sh.se = engine.New(g, engine.Options{Parallelism: 1})
	sh.se.Boundary(a)
	sh.csr = g.ToCSR()
	sh.sa = a.Clone()
	if sh.sc.vcycle {
		sh.hier = coarsen.NewHierarchy(g, coarsen.HierarchyOptions{Procs: 1})
		if _, err := sh.hier.Update(ctx, sh.sa); err != nil {
			return fmt.Errorf("shadow hierarchy: %w", err)
		}
	}
	return nil
}

func (sh *shadow) span(name string, fn func() error) error {
	id := sh.ts.tr.begin(name)
	err := fn()
	sh.ts.tr.end(id)
	return err
}

// op applies the edits of the instance's i-th measured op (i < 0: a
// warm-up op, whose spans belong to set-up) and walks the pipeline on a
// copy of the pre-op assignment a.
func (sh *shadow) op(i int, edits []edit, a *partition.Assignment) error {
	ctx := context.Background()
	g, tr := sh.g, sh.ts.tr
	tr.op = -1
	if i >= 0 {
		tr.op = sh.opBase + i
	}
	id := tr.begin("graph.reconcile")
	err := apply(g, edits)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("graph.csr_refresh")
	csr, _ := g.RefreshCSR(sh.csr)
	tr.end(id)
	sh.csr = csr

	sa := sh.sa
	sa.P = a.P
	sa.Part = append(sa.Part[:0], a.Part...)
	if err := sh.span("engine.assign_oracle", func() error {
		_, _, err := engine.Assign(g, sa)
		return err
	}); err != nil {
		return err
	}
	id = tr.begin("engine.sync")
	sh.se.Boundary(sa)
	tr.end(id)

	if sh.hier != nil {
		if err := sh.span("coarsen.update", func() error {
			_, err := sh.hier.Update(ctx, sa)
			return err
		}); err != nil {
			return err
		}
		if err := sh.span("coarsen.solve_coarsest", func() error {
			_, _, err := sh.hier.SolveCoarsest(ctx, &sh.solver)
			return err
		}); err != nil {
			return err
		}
		if err := sh.span("coarsen.uncoarsen", func() error {
			_, err := sh.hier.Uncoarsen(ctx, sa)
			return err
		}); err != nil {
			return err
		}
	}

	// The stage loop, as the engine runs it with default options.
	if cap(sh.sizes) < sa.P {
		sh.sizes = make([]int, sa.P)
		sh.targets = make([]int, sa.P)
	}
	targets := partition.TargetsInto(sh.targets, g.NumVertices(), sa.P)
	for stage := 0; stage < 16; stage++ {
		sizes := sa.SizesInto(sh.sizes[:sa.P], g)
		dev := 0
		for q := range sizes {
			dev = max(dev, max(sizes[q]-targets[q], targets[q]-sizes[q]))
		}
		if dev == 0 {
			break
		}
		id = tr.begin("layering.layer")
		lay, err := sh.se.Layer(ctx, sa)
		tr.end(id)
		if err != nil {
			return err
		}
		moved := 0
		for eps := 1.0; eps <= 8; eps++ {
			id = tr.begin("balance.formulate")
			m, err := sh.bal.FormulateTol(lay.Delta, sizes, targets, eps, 0)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("balance.solve")
			flows, sol, err := balance.SolveInto(ctx, m, &sh.solver, sh.flows)
			tr.end(id)
			if err != nil {
				return err
			}
			if flows != nil {
				sh.flows = flows
			}
			if sol.Status != lp.Optimal {
				continue
			}
			id = tr.begin("balance.apply")
			moved, err = balance.Apply(sa, lay, flows)
			tr.end(id)
			if err != nil {
				return err
			}
			break
		}
		if moved == 0 {
			break
		}
	}

	if sh.sc.refine {
		sh.solver.inRefine = true
		_, best, err := refine.Drive(ctx, g, sa, refine.Options{
			Solver:    &sh.solver,
			Arena:     &sh.drive,
			CutWeight: func() float64 { return sh.se.Cut(sa).TotalWeight },
		}, func(strict bool) (*refine.Candidates, error) {
			id := tr.begin("refine.gains")
			c, err := sh.se.Gains(sa, strict)
			tr.end(id)
			if err == nil {
				id = tr.begin("refine.formulate")
				sh.form.Formulate(c)
				tr.end(id)
			}
			return c, err
		}, sh.best)
		sh.solver.inRefine = false
		sh.best = best
		if err != nil {
			return err
		}
	}
	return nil
}

// beginProduct opens the product call's span and reads the allocation
// counter just before it.
func (sh *shadow) beginProduct() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sh.mallocs = ms.Mallocs
	sh.product = sh.ts.tr.begin("engine.repartition")
}

// endProduct closes the product span, then times the engine's maintained
// cut beside the full-rescan oracle on the op's final assignment.
func (sh *shadow) endProduct(a *partition.Assignment) {
	tr := sh.ts.tr
	tr.end(sh.product)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if tr.op >= 0 {
		sh.ts.allocs = append(sh.ts.allocs, float64(ms.Mallocs-sh.mallocs))
	}

	id := tr.begin("engine.resync")
	sh.se.Boundary(a)
	tr.end(id)
	id = tr.begin("engine.cut")
	inc := sh.se.Cut(a)
	tr.end(id)
	id = tr.begin("partition.cut_full")
	full := partition.Cut(sh.g, a)
	tr.end(id)
	if inc.Total != full.Total || inc.TotalWeight != full.TotalWeight {
		sh.ts.cutMismatch++
	}
}

// metrics turns the spans into the per-layer numbers: medians over ops of
// each layer call's time per op.
func (ts *traceState) metrics(v values, compareSolvers bool) {
	tr := ts.tr
	med := func(name string, scale float64) float64 { return median(tr.perOp(name, scale)) }
	v["graph.reconcile_us"] = med("graph.reconcile", 1e3)
	v["graph.csr_refresh_us"] = med("graph.csr_refresh", 1e3)
	v["engine.sync_us"] = med("engine.sync", 1e3)
	v["engine.cut_us"] = med("engine.cut", 1e3)
	v["partition.cut_full_us"] = med("partition.cut_full", 1e3)
	v["engine.allocs_per_op"] = median(ts.allocs)
	v["layering.layer_ms"] = med("layering.layer", 1e6)
	v["balance.formulate_us"] = med("balance.formulate", 1e3)
	v["balance.solve_ms"] = med("balance.solve", 1e6)
	v["refine.gains_us"] = med("refine.gains", 1e3)
	v["refine.formulate_us"] = med("refine.formulate", 1e3)
	v["refine.solve_ms"] = med("refine.solve", 1e6)
	v["coarsen.update_ms"] = med("coarsen.update", 1e6)
	v["coarsen.solve_coarsest_ms"] = med("coarsen.solve_coarsest", 1e6)
	v["coarsen.uncoarsen_ms"] = med("coarsen.uncoarsen", 1e6)
	if ts.pivots > 0 {
		v["lp.us_per_pivot"] = sum(tr.perOp("lp.solve", 1e3)) / float64(ts.pivots)
	}
	if compareSolvers {
		compareLPSolvers(v, ts.recorded)
	}
}

// compareLPSolvers solves the recorded refinement LPs, in order, with a
// fresh session of every registered solver and reports mean time and mean
// pivots per LP. The stated tolerance is 5 % of the default solver's
// objective (the approximate solver's own guarantee); a solver that fails
// an LP or strays further has its time printed negative.
func compareLPSolvers(v values, lps []*lp.Problem) {
	if len(lps) == 0 {
		return
	}
	ctx := context.Background()
	ref := make([]float64, len(lps))
	for _, name := range lpSolvers {
		base, err := lp.Lookup(name)
		if err != nil {
			continue // no longer registered: reads 0
		}
		s := lp.Session(base)
		pivots, bad := 0, false
		t0 := time.Now()
		for i, p := range lps {
			sol, err := s.Solve(ctx, p)
			if err != nil || sol.Status != lp.Optimal {
				bad = true
				break
			}
			pivots += sol.Iterations
			if name == lpSolvers[0] {
				ref[i] = sol.Objective
			} else if math.Abs(sol.Objective-ref[i]) > 0.05*math.Abs(ref[i])+1e-6 {
				bad = true
			}
		}
		ms := float64(time.Since(t0)) / 1e6 / float64(len(lps))
		if bad {
			ms = -ms
		}
		v["lp.solve_ms."+name] = ms
		v["lp.pivots."+name] = float64(pivots) / float64(len(lps))
	}
}
