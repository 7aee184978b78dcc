package igp

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/lp"
	"repro/internal/refine"
)

// Event is one stage-level observation streamed to a [WithObserver]
// callback during Repartition: phase start/end spans with wall-clock,
// the ε and vertex count of every balance stage, each applied refinement
// round, and each cut report (evaluated or reused). Events arrive in
// pipeline order on the calling goroutine; see the Kind/Phase fields.
type Event = engine.Event

// EventKind distinguishes observer events.
type EventKind = engine.EventKind

// Phase names one of the pipeline's four phases.
type Phase = engine.Phase

// The observer event kinds.
const (
	EventStart = engine.EventStart
	EventEnd   = engine.EventEnd
	EventRound = engine.EventRound
	EventCut   = engine.EventCut
)

// The pipeline phases reported in events and PhaseTimings. PhaseCoarsen
// and PhaseUncoarsen appear only under [WithMultilevel], on calls that
// run the V-cycle (see [Stats.VCycleSkipped]).
const (
	PhaseAssign    = engine.PhaseAssign
	PhaseLayer     = engine.PhaseLayer
	PhaseBalance   = engine.PhaseBalance
	PhaseRefine    = engine.PhaseRefine
	PhaseCoarsen   = engine.PhaseCoarsen
	PhaseUncoarsen = engine.PhaseUncoarsen
)

// config is the validated product of applying functional options.
type config struct {
	solver      Solver // nil = the registry default
	refine      bool
	tolerance   int
	batches     int
	parallelism int
	observer    func(Event)
	multilevel  bool
}

// An Option configures an [Engine] (or a one-shot [Repartition] call).
// Options are validated eagerly: a misconfiguration — an unknown solver
// name, a negative tolerance, batches < 1 — is reported by NewEngine or
// Repartition before any work starts, never mid-run.
type Option func(*config) error

// buildConfig applies opts over the defaults, failing on the first
// invalid option.
func buildConfig(opts []Option) (*config, error) {
	cfg := &config{batches: 1}
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("igp: nil Option")
		}
		if err := o(cfg); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// WithRefine enables the cut-refinement phase (the paper's IGPR).
func WithRefine() Option {
	return func(c *config) error {
		c.refine = true
		return nil
	}
}

// WithSolver selects the LP solver by registry name: "network" (the
// default), "dense", or anything added via [RegisterSolver]. Unknown
// names fail at NewEngine/Repartition time with an error listing the
// registered ones.
//
// "network" pivots the balance and refinement LPs — min-cost flows on
// the partition quotient graph, with or without a [WithTolerance]
// allowance — on a spanning tree rather than a tableau; it has no
// fallback and refuses a problem that is not a flow. "dense" is the
// paper's tableau simplex, kept as the oracle "network" is tested
// against.
func WithSolver(name string) Option {
	return func(c *config) error {
		s, err := lp.Lookup(name)
		if err != nil {
			return fmt.Errorf("igp: WithSolver: %w", err)
		}
		c.solver = s
		return nil
	}
}

// WithTolerance allows partition sizes to deviate from their ideal
// targets by up to n ≥ 0 vertices (default 0 = the paper's exact
// balance). Positive values trade residual imbalance for less movement.
//
// The allowance stays a min-cost flow: the balance LP keeps one equality
// row per partition and gains P zero-cost slack columns after the pair
// columns, 0 ≤ s_j ≤ 2n with a single +1 in row j (an arc from partition
// j to the root), whose row reads outflow − inflow + s_j = surplus_j + n.
// That is the [LPProblem] an out-of-tree [Solver] receives under a
// tolerance.
func WithTolerance(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("igp: WithTolerance(%d): tolerance must be ≥ 0", n)
		}
		c.tolerance = n
		return nil
	}
}

// WithBatches reveals the new vertices in k ≥ 1 groups (ordered by
// distance from the old region) and repartitions after each — the
// paper's §2.3 fallback for incremental changes too severe for a single
// correction. k = 1 (the default) is the ordinary single pass.
func WithBatches(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("igp: WithBatches(%d): batches must be ≥ 1", k)
		}
		c.batches = k
		return nil
	}
}

// WithParallelism sets the worker count n ≥ 1 for the engine's sharded
// multi-core kernels — the incremental boundary recompute, the layering
// BFS level expansion, the refinement gain scan, the sorted cut report,
// the orphan-cluster flood and the V-cycle's coarsening. LP solves are
// sequential whatever n is. The default is runtime.GOMAXPROCS(0). Each
// kernel has one code path with n as a parameter: n = 1 runs it as one
// shard, inline on the calling goroutine, with no goroutine spawned.
//
// Parallelism is purely a latency property: results are bit-identical
// for every worker count (work is sharded deterministically and
// per-worker results merge in shard order — fuzz-verified). Per-worker busy time is reported in
// [Stats.WorkerBusy].
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("igp: WithParallelism(%d): workers must be ≥ 1", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithObserver streams stage-level [Event]s to fn during Repartition —
// phase spans, per-stage ε and movement, refinement rounds — for live
// dashboards and tracing. fn runs synchronously on the repartitioning
// goroutine and must not be nil.
func WithObserver(fn func(Event)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("igp: WithObserver(nil): observer must not be nil")
		}
		c.observer = fn
		return nil
	}
}

// WithMultilevel enables the multilevel V-cycle: instead of balancing
// the full graph directly, the pipeline coarsens it by repeated
// same-partition heavy-edge matching to a small core, partitions that
// core (weighted balance LP, or a spectral bisection when the incoming
// assignment is degenerate), and projects the decision back down with
// greedy refinement at every level — the fine stage loop then acts as an
// exact-balance polish on an already-good configuration. On
// paper-scale meshes (10⁵–10⁶ vertices) this turns a minutes-long cold
// partition into seconds while staying within a small factor of the flat
// pipeline's cut.
//
// The V-cycle is a balancing stage and runs on demand, under the test
// that guards every stage: a call that arrives balanced — every
// partition within [WithTolerance] of its target, so with
// WithTolerance(k) a call within ±k — skips it exactly as the stage loop
// skips its stages ([Stats.VCycleSkipped]); size-preserving edits cost
// what they cost the flat pipeline.
//
// Inside an [Engine] the coarse hierarchy is part of the session: a warm
// Repartition that does run the V-cycle repairs it from the graph's edit
// journal — only the clusters whose members were touched, or split by
// vertex moves, since the hierarchy was last consulted dissolve and
// re-match — instead of recoarsening from scratch
// ([Stats.HierarchyRepaired] reports which path ran; a window the
// bounded journal no longer covers is rebuilt). Results are
// bit-identical at every [WithParallelism] value.
//
// Coarsening stops once a level has at most max(64, 16·P) live vertices,
// after 32 levels, or when a level would keep more than 95 % of its fine
// vertices.
func WithMultilevel() Option {
	return func(c *config) error {
		c.multilevel = true
		return nil
	}
}

// engineOptions assembles the internal engine configuration.
func (c *config) engineOptions() engine.Options {
	return engine.Options{
		Solver:        c.solver,
		Tolerance:     c.tolerance,
		Refine:        c.refine,
		Parallelism:   c.parallelism,
		Multilevel:    engine.MultilevelOptions{Enabled: c.multilevel},
		RefineOptions: refine.Options{Solver: c.solver},
		Observer:      c.observer,
	}
}
