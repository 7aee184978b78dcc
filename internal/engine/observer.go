package engine

import "time"

// Phase names one phase of the pipeline. The values are stable:
// dashboards may persist them (new phases are only ever appended).
type Phase int8

// The four phases of the incremental graph partitioner, plus the two
// V-cycle phases that bracket them when Options.Multilevel is enabled.
const (
	PhaseAssign  Phase = iota // phase 1: nearest-partition assignment
	PhaseLayer                // phase 2: boundary layering
	PhaseBalance              // phase 3: the balance LP + moves
	PhaseRefine               // phase 4: LP cut refinement (IGPR)
	// PhaseCoarsen is the V-cycle's down-leg: the hierarchy build (one
	// matching and contraction per level, from scratch on every call that
	// runs the V-cycle) plus the coarsest-graph solve.
	PhaseCoarsen
	// PhaseUncoarsen is the V-cycle's up-leg: per-level projection and
	// greedy refinement back to the fine graph.
	PhaseUncoarsen
)

func (p Phase) String() string {
	switch p {
	case PhaseAssign:
		return "assign"
	case PhaseLayer:
		return "layer"
	case PhaseBalance:
		return "balance"
	case PhaseRefine:
		return "refine"
	case PhaseCoarsen:
		return "coarsen"
	case PhaseUncoarsen:
		return "uncoarsen"
	}
	return "unknown"
}

// EventKind distinguishes observer events.
type EventKind int8

const (
	// EventStart opens a span: a whole phase, or one stage's slice of the
	// layer/balance phases.
	EventStart EventKind = iota
	// EventEnd closes the matching EventStart span and carries its
	// measurements (Elapsed, and Moved/Epsilon where applicable).
	EventEnd
	// EventRound reports one applied refinement round (Stage is the
	// 1-based round, Moved the vertices it moved).
	EventRound
	// EventCut reports one cut report (see Stats.CutIncremental), Reused
	// when it was a copy of the kept one; Phase is not meaningful.
	EventCut
)

func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventEnd:
		return "end"
	case EventRound:
		return "round"
	case EventCut:
		return "cut"
	}
	return "unknown"
}

// Event is one stage-level observation streamed to Options.Observer
// during Repartition. Events arrive in pipeline order, on the calling
// goroutine, with every EventEnd following its EventStart:
//
//	assign start/end, the CutBefore report's cut event,
//	then if multilevel is enabled and the call arrived unbalanced
//	(nothing at all when Stats.VCycleSkipped):
//	  coarsen start, per-level coarsen start/end pairs (Stage = 1-based
//	  level, emitted back-to-back after the level's work with its
//	  measured Elapsed), coarsen end,
//	  uncoarsen start, per-level pairs in uncoarsening order (Stage
//	  descending), uncoarsen end,
//	then per balancing stage s: layer start/end (Stage=s; the rim pass),
//	balance start/end (Stage=s, Epsilon, Moved, Deepened, LPSolves,
//	TightKept; the partitions the LP asks for are finished inside this
//	span; a stage the LP cannot solve at any ε, or relaxed until it
//	could move nothing, still closes its span with Epsilon 0 and Moved 0,
//	and it is the last; every other stage moves at least one vertex),
//	then the spill, if the stages left the call unbalanced, which emits
//	nothing (Stats.Spilled),
//	then if refinement is enabled: refine start, a cut event, refine
//	rounds, a cut event if any was applied, refine end; else a cut event.
//
// The struct is passed by value and is free of engine-owned pointers, so
// observers may retain it. Spans stay paired on error paths too: an
// aborted phase (cancellation, a solver error) still emits its EventEnd —
// carrying the elapsed time but possibly zero Moved/Epsilon — before
// Repartition returns the error.
type Event struct {
	Kind  EventKind
	Phase Phase
	// Stage is the 1-based balancing stage for layer/balance spans, the
	// 1-based level for per-level coarsen/uncoarsen spans and the 1-based
	// round for refine EventRound; 0 for whole-phase spans.
	Stage int
	// Epsilon is the relaxation factor that produced a feasible LP
	// (balance EventEnd only).
	Epsilon float64
	// Moved counts vertices moved in the closed span (for the assign
	// phase: vertices newly assigned; for a per-level coarsen span: the
	// groups that level's build formed).
	Moved int
	// Deepened, LPSolves and TightKept say why a balance stage cost what
	// it did (balance EventEnd only): the partitions it layered to full
	// depth, the LPs it solved and the tight rim bounds its accepted
	// optimum kept without deepening, see Stats.StageDeepened.
	Deepened, LPSolves, TightKept int
	// Elapsed is the wall-clock duration of the closed span (EventEnd
	// only).
	Elapsed time.Duration
	Reused  bool // EventCut only: the report was a copy of the kept one
}

// emit delivers ev to the configured observer, if any. Observers run
// synchronously on the repartitioning goroutine: a slow observer slows
// the pipeline, and panics propagate to the Repartition caller.
func (e *Engine) emit(ev Event) {
	if e.opt.Observer != nil {
		e.opt.Observer(ev)
	}
}
