package engine

// multilevel.go is the engine's V-cycle driver: when Options.Multilevel
// is enabled, Repartition runs a coarsen → solve-coarsest → uncoarsen
// cycle between phase 1 and the balancing stage loop. The hierarchy
// (coarsen.Hierarchy) lives inside the engine session, so a warm call
// repairs it from the graph's journal instead of recoarsening — the same
// journal/epoch contract the CSR patch and boundary tracker already
// consume. The stage loop then acts as the fine polish: the V-cycle
// leaves at most cluster-granularity imbalance, so its LPs stay
// paper-sized, and the refinement phase (when enabled) sees an
// already-good cut.
//
// The V-cycle is a balancing stage — the paper's §4 remark makes the
// coarse pass a way to correct imbalance with cluster moves — and it is
// demand-driven like the others: Repartition enters it only when the
// partition sizes deviate from their targets by more than
// Options.Tolerance, the test that guards every stage of the loop. On a
// balanced call the coarsest LP has a zero right-hand side, nothing is
// projected and nothing refined, so the call is reported as
// Stats.VCycleSkipped and the hierarchy is not touched at all. Nothing
// marks it stale: the next call that consults it repairs the whole
// window since it was last consulted with what the hierarchy already
// owns — level 0 reads the journal back to the epoch it consumed, the
// purity sweep dissolves every group that refinement or the caller split
// meanwhile, and a window the bounded journal no longer covers takes the
// compacting rebuild.

import (
	"context"
	"time"

	"repro/internal/coarsen"
	"repro/internal/partition"
)

// MultilevelOptions configures the engine's V-cycle mode.
type MultilevelOptions struct {
	// Enabled turns the V-cycle on. When false the other fields are
	// ignored and Repartition runs the flat four-phase pipeline
	// unchanged.
	Enabled bool
	// CoarsenTo stops coarsening once a level has at most this many live
	// vertices (0 = max(64, 16·P); see coarsen.HierarchyOptions).
	CoarsenTo int
	// MaxLevels caps the hierarchy depth (0 = 32).
	MaxLevels int
	// Seed drives the spectral initial partitioning of the coarsest
	// graph when the incoming assignment is degenerate (0 = the spectral
	// package's fixed default). Fixed seed + fixed edit history =>
	// identical output at every Parallelism.
	Seed int64
}

// LevelStats re-exports the per-level hierarchy statistics so engine
// callers need not import internal/coarsen.
type LevelStats = coarsen.LevelStats

// runMultilevel executes the V-cycle between phase 1 and the balancing
// stage loop: hierarchy update (journal repair where possible), coarsest
// solve (weighted balance LP, or spectral init when the assignment is
// degenerate), and uncoarsening with per-level greedy refinement. The
// assignment stays valid at every exit, including cancellation.
func (e *Engine) runMultilevel(ctx context.Context, a *partition.Assignment) error {
	st := e.stats
	if e.ml == nil {
		e.ml = coarsen.NewHierarchy(e.g, coarsen.HierarchyOptions{
			CoarsenTo:  e.opt.Multilevel.CoarsenTo,
			MaxLevels:  e.opt.Multilevel.MaxLevels,
			Seed:       e.opt.Multilevel.Seed,
			EpsilonMax: e.opt.epsMax(),
			// The hierarchy's sharded kernels run on the engine's own
			// worker group, so WithParallelism covers the V-cycle and its
			// busy time rolls into Stats.WorkerBusy.
			Group: &e.group,
			Procs: e.procs,
		})
	}
	tC := time.Now()
	e.emit(Event{Kind: EventStart, Phase: PhaseCoarsen})
	repaired, err := e.ml.Update(ctx, a)
	if err != nil {
		st.PhaseTimings.Coarsen = time.Since(tC)
		e.emit(Event{Kind: EventEnd, Phase: PhaseCoarsen, Elapsed: st.PhaseTimings.Coarsen})
		return err
	}
	st.HierarchyRepaired = repaired
	moved, spectralInit, err := e.ml.SolveCoarsest(ctx, e.opt.solver())
	st.CoarseMoved = moved
	st.SpectralInit = spectralInit
	st.PhaseTimings.Coarsen = time.Since(tC)
	// Per-level spans are synthesized back-to-back after the work (the
	// hierarchy's sharded regions already report busy time through the
	// engine group; live span instrumentation would buy nothing), each
	// carrying its measured share.
	for l, ls := range e.ml.Levels() {
		e.emit(Event{Kind: EventStart, Phase: PhaseCoarsen, Stage: l + 1})
		e.emit(Event{Kind: EventEnd, Phase: PhaseCoarsen, Stage: l + 1,
			Moved: ls.Matched, Elapsed: ls.CoarsenTime})
	}
	e.emit(Event{Kind: EventEnd, Phase: PhaseCoarsen, Moved: moved, Elapsed: st.PhaseTimings.Coarsen})
	if err != nil {
		return err
	}

	tU := time.Now()
	e.emit(Event{Kind: EventStart, Phase: PhaseUncoarsen})
	refined, err := e.ml.Uncoarsen(ctx, a)
	st.VCycleRefined = refined
	st.PhaseTimings.Uncoarsen = time.Since(tU)
	for l := e.ml.Depth() - 1; l >= 0; l-- {
		ls := e.ml.Levels()[l]
		e.emit(Event{Kind: EventStart, Phase: PhaseUncoarsen, Stage: l + 1})
		e.emit(Event{Kind: EventEnd, Phase: PhaseUncoarsen, Stage: l + 1,
			Moved: ls.Refined, Elapsed: ls.UncoarsenTime})
	}
	e.emit(Event{Kind: EventEnd, Phase: PhaseUncoarsen, Moved: refined, Elapsed: st.PhaseTimings.Uncoarsen})
	// Copy the per-level stats only now: Uncoarsen fills the up-leg half
	// of the same arena Update started.
	st.Levels = append(st.Levels[:0], e.ml.Levels()...)
	return err
}
