package igp

import (
	"time"

	"repro/internal/engine"
)

// PhaseTimings is the per-phase wall-clock breakdown of one Repartition
// call: phase 1 nearest-partition assignment, phase 2 boundary layering
// (every stage's rim pass plus the partitions its balance LP asked to
// have finished), phase 3 LP balancing (formulate + solve + move, summed
// over stages), and phase 4 refinement. Under
// [WithMultilevel], Coarsen (hierarchy update plus coarsest solve) and
// Uncoarsen (projection plus per-level refinement) cover the V-cycle
// legs run between assignment and balancing; both are zero otherwise,
// and on a call that skipped the V-cycle ([Stats.VCycleSkipped]).
// For a single-pass run their sum is within bookkeeping noise of
// Stats.Elapsed; a WithBatches(k>1) run sums the per-batch pipelines,
// which excludes the subgraph construction between batches.
type PhaseTimings struct {
	Assign    time.Duration
	Coarsen   time.Duration
	Uncoarsen time.Duration
	Layer     time.Duration
	Balance   time.Duration
	Refine    time.Duration
}

// Total sums the phases.
func (t PhaseTimings) Total() time.Duration {
	return t.Assign + t.Coarsen + t.Uncoarsen + t.Layer + t.Balance + t.Refine
}

// LevelStats reports what one [WithMultilevel] Repartition did at one
// hierarchy level; see [Stats.Levels].
type LevelStats = engine.LevelStats

// Stats reports what Repartition did.
//
// The *Stats returned by an [Engine]'s Repartition is an arena owned by
// the engine and overwritten by its next call; use [Stats.Clone] to
// retain one across calls. The one-shot package-level [Repartition]
// returns a fresh value every time.
type Stats struct {
	// NewAssigned is the number of new vertices placed in phase 1.
	NewAssigned int
	// Stages is the number of balancing stages used (the paper's IGP(k)).
	Stages int
	// EpsilonUsed lists the relaxation factor of each stage.
	EpsilonUsed []float64
	// BalanceMoved counts vertices moved for load balance.
	BalanceMoved int
	// RefineMoved counts vertices moved by refinement.
	RefineMoved int
	// RefineRounds is the number of refinement LP rounds applied.
	RefineRounds int
	// RefineStrictFrom counts the loose (≥ 0 gain) rounds; RefineStop says
	// why refinement ended: "cap", "no-candidates", "no-gain", "cycle" (the
	// round cap's result, reached early), "unsolved" (an LP hit its pivot
	// cap) or "canceled". A [WithBatches] run reports the last batch's.
	RefineStrictFrom int
	RefineStop       string
	// LPVars and LPCons are the dense-formulation dimensions of the
	// largest balance LP (the paper's v and c). Under [WithTolerance]
	// they include the P slack columns and their bounds.
	LPVars, LPCons int
	// LPIterations is the total simplex pivots across every balance stage
	// and refinement round.
	LPIterations int
	// StagePivots lists the simplex pivots of each balance stage in
	// stage order, and RoundPivots those of each refinement LP round.
	// They are the per-solve decomposition of LPIterations.
	StagePivots []int
	RoundPivots []int
	// StageDeepened and StageLPSolves say, per balancing stage in stage
	// order, why the stage cost what it did. Layering is on demand: a
	// stage labels only the rim of every partition, solves the balance LP
	// on those bounds, and layers to full depth just the partitions whose
	// bound the optimum touches (everything, before ε may escalate on an
	// infeasible solve), re-solving after each deepening, so a stage
	// solves at most one LP per partition it finishes plus one per ε
	// tried. StageDeepened counts the partitions a stage finished
	// (0 = the rim was enough; P = a full layering), StageLPSolves its LPs
	// (StagePivots are the accepted solve's). The accepted flows have the
	// full-depth LP's ε and objective either way.
	StageDeepened []int
	StageLPSolves []int
	// RoundCuts is the cut weight after every applied refinement round and
	// RoundMoved the vertices that round moved, in round order (len ==
	// RefineRounds; RoundMoved sums to RefineMoved) — the cut-vs-round and
	// cost-vs-round curves. Every entry is an exact report of the engine's
	// tracked cut, like CutBefore/CutAfter, whatever the edge weights.
	RoundCuts  []float64
	RoundMoved []int
	// CutBefore and CutAfter report cutset quality around balancing and
	// refinement.
	CutBefore, CutAfter CutStats
	// PhaseTimings is the per-phase wall-clock breakdown.
	PhaseTimings PhaseTimings
	// Elapsed is the wall clock of the whole pipeline, measured inside the
	// engine (it excludes callers' option conversion).
	Elapsed time.Duration
	// Parallelism is the worker count the engine's sharded kernels ran
	// with — the resolved [WithParallelism] value (1 = every region one
	// shard, run inline).
	Parallelism int
	// WorkerBusy is the per-worker busy wall clock summed over every
	// parallel region of the call (boundary sync, layering BFS, gain
	// scans); index w is worker w. It is
	// empty at one worker. Comparing the sum against Elapsed
	// shows how much of the pipeline actually fanned out.
	WorkerBusy []time.Duration
	// CSRPatched counts snapshot refreshes during this call served by
	// the journal-driven partial CSR patch (only the touched rows
	// rewritten) rather than a full O(n+m) rebuild. On a warm [Engine]
	// absorbing small edits it equals the number of refreshes; it is
	// zero on the first call, after journal overflow, and when churn or
	// a slot overflow forced a compacting rebuild.
	CSRPatched int
	// SyncDiffs counts this call's syncs that compared all n assignment
	// slots: its entry, after a V-cycle, and any whose log of the engine's
	// own writes outgrew n/64 entries; the others followed that log.
	SyncDiffs int
	// VCycleSkipped reports that [WithMultilevel] is on and the call
	// arrived balanced (every partition within [WithTolerance] of its
	// target), so the V-cycle — a balancing stage — did not run and the
	// hierarchy was left untouched: Levels is empty, HierarchyRepaired
	// and SpectralInit are false, the Coarsen/Uncoarsen timings are zero
	// and no [PhaseCoarsen]/[PhaseUncoarsen] event was emitted.
	VCycleSkipped bool
	// Levels reports the [WithMultilevel] hierarchy bottom-up: sizes,
	// repair-vs-rebuild outcome and timings of each coarse level. It is
	// empty when the V-cycle is disabled or was skipped. Like the rest of
	// an engine's Stats arena it is overwritten by the next call; Clone
	// detaches it.
	Levels []LevelStats
	// HierarchyRepaired reports that a [WithMultilevel] call repaired
	// every pre-existing hierarchy level from the graph's edit journal —
	// the warm path — instead of recoarsening any of them from scratch.
	// The repair covers everything since the hierarchy was last
	// consulted, skipped calls included.
	HierarchyRepaired bool
	// SpectralInit reports that the coarsest level was partitioned by the
	// spectral solve (degenerate incoming assignment) rather than the
	// weighted balance LP.
	SpectralInit bool
	// CoarseMoved is the level-0 vertex weight moved by the coarsest
	// solve, and VCycleRefined counts the greedy refinement moves applied
	// across all uncoarsening levels (both zero without [WithMultilevel];
	// BalanceMoved/RefineMoved count the fine polish separately).
	CoarseMoved   int
	VCycleRefined int
	// CutIncremental counts the cut reports this call summed from the
	// engine's tracked per-vertex cut terms — one pass over the maintained
	// partition-boundary list, no arc visited, bit-identical to the full
	// rescan — and CutReused the reports it copied, at O(P), from the last
	// one because nothing they depend on had been re-examined. The reports
	// are CutBefore and CutAfter and, under [WithRefine], one on entry to
	// refinement, one after every applied round (RoundCuts) and the closing
	// one, which is CutAfter; a call that moves no vertex sums at most once.
	CutIncremental int
	CutReused      int
}

// Clone returns a deep copy of the Stats, detached from any engine
// arena: unlike the value an [Engine] returns — which is overwritten by
// the engine's next call — a clone stays valid forever. Sessions that
// archive per-call statistics clone each result before the next call.
func (s *Stats) Clone() *Stats {
	c := *s
	c.EpsilonUsed = append([]float64(nil), s.EpsilonUsed...)
	c.StagePivots = append([]int(nil), s.StagePivots...)
	c.StageDeepened = append([]int(nil), s.StageDeepened...)
	c.StageLPSolves = append([]int(nil), s.StageLPSolves...)
	c.RoundPivots = append([]int(nil), s.RoundPivots...)
	c.RoundCuts = append([]float64(nil), s.RoundCuts...)
	c.RoundMoved = append([]int(nil), s.RoundMoved...)
	c.WorkerBusy = append([]time.Duration(nil), s.WorkerBusy...)
	c.Levels = append([]LevelStats(nil), s.Levels...)
	c.CutBefore.PerPart = append([]float64(nil), s.CutBefore.PerPart...)
	c.CutAfter.PerPart = append([]float64(nil), s.CutAfter.PerPart...)
	return &c
}

// convertStatsInto fills dst from the engine's internal stats, reusing
// dst's slice capacities so steady-state conversion through a warm
// [Engine] allocates nothing.
func convertStatsInto(dst *Stats, st *engine.Stats) {
	eps := dst.EpsilonUsed[:0]
	pivots, deepened, solves := dst.StagePivots[:0], dst.StageDeepened[:0], dst.StageLPSolves[:0]
	for _, sg := range st.Stages {
		eps = append(eps, sg.Epsilon)
		pivots = append(pivots, sg.LPPivots)
		deepened = append(deepened, sg.Deepened)
		solves = append(solves, sg.LPSolves)
	}
	rounds, cuts, moves := dst.RoundPivots[:0], dst.RoundCuts[:0], dst.RoundMoved[:0]
	if st.Refine != nil {
		rounds = append(rounds, st.Refine.RoundPivots...)
		cuts = append(cuts, st.Refine.RoundCuts...)
		moves = append(moves, st.Refine.RoundMoved...)
	}
	busy := append(dst.WorkerBusy[:0], st.WorkerBusy...)
	levels := append(dst.Levels[:0], st.Levels...)
	*dst = Stats{
		NewAssigned:       st.NewAssigned,
		Stages:            len(st.Stages),
		EpsilonUsed:       eps,
		StagePivots:       pivots,
		StageDeepened:     deepened,
		StageLPSolves:     solves,
		RoundPivots:       rounds,
		RoundCuts:         cuts,
		RoundMoved:        moves,
		BalanceMoved:      st.BalanceMoved,
		LPIterations:      st.LPIterations,
		Parallelism:       st.Parallelism,
		WorkerBusy:        busy,
		CSRPatched:        st.CSRPatched,
		SyncDiffs:         st.SyncDiffs,
		CutIncremental:    st.CutIncremental,
		CutReused:         st.CutReused,
		CutBefore:         st.CutBefore,
		CutAfter:          st.CutAfter,
		VCycleSkipped:     st.VCycleSkipped,
		Levels:            levels,
		HierarchyRepaired: st.HierarchyRepaired,
		SpectralInit:      st.SpectralInit,
		CoarseMoved:       st.CoarseMoved,
		VCycleRefined:     st.VCycleRefined,
		PhaseTimings: PhaseTimings{
			Assign:    st.AssignTime,
			Coarsen:   st.CoarsenTime,
			Uncoarsen: st.UncoarsenTime,
			Layer:     st.LayerTime,
			Balance:   st.BalanceTime,
			Refine:    st.RefineTime,
		},
		Elapsed: st.Elapsed,
	}
	dst.LPVars, dst.LPCons = st.MaxLPSize()
	if st.Refine != nil {
		dst.RefineMoved = st.Refine.Moved
		dst.RefineRounds = st.Refine.Rounds
		dst.RefineStrictFrom = st.Refine.StrictFrom
		dst.RefineStop = st.Refine.Stop
	}
}
