package engine

import (
	"slices"
	"time"

	"repro/internal/partition"
)

// PhaseTimings is the per-phase wall-clock breakdown of one Repartition
// call: phase 1 nearest-partition assignment, phase 2 boundary layering
// (every stage's rim pass plus the partitions its balance LP asked to have
// finished), phase 3 LP balancing (formulate + solve + move, summed over
// stages) and phase 4 refinement. Under Options.Multilevel
// (igp.WithMultilevel), Coarsen (hierarchy update plus coarsest solve) and
// Uncoarsen (projection plus per-level refinement) cover the V-cycle legs
// run between assignment and balancing; both are zero otherwise, and on a
// call that skipped the V-cycle (Stats.VCycleSkipped). For a single-pass
// run their sum is within bookkeeping noise of Stats.Elapsed; a batched
// run (igp.WithBatches) sums the per-batch pipelines, which excludes the
// subgraph construction between batches.
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

// Stats reports what one Repartition call did; it is also igp.Stats, and
// the benchmark harness and the paper tables read their columns from it.
//
// The *Stats an Engine's Repartition returns is an arena owned by the
// engine and overwritten by its next call (and invalid after Close): a
// shallow copy is not enough, because the slice-backed fields point into
// the arena too. Use Clone to retain one.
type Stats struct {
	// NewAssigned is the number of new vertices placed in phase 1, and
	// ClusterFallbacks the disconnected new-vertex clusters among them that
	// were placed whole on the least-loaded partition.
	NewAssigned      int
	ClusterFallbacks int
	// Stages is the number of balancing stages used (the paper's IGP(k)).
	// EpsilonUsed, StageMoved and StagePivots list, in stage order, the
	// relaxation factor that produced a feasible LP, the vertices the stage
	// moved and the simplex pivots of its accepted solve.
	Stages      int
	EpsilonUsed []float64
	StageMoved  []int
	StagePivots []int
	// StageDeepened and StageLPSolves say, per stage, why it cost what it
	// did. Layering is on demand: a stage labels only the rim of every
	// partition, solves the balance LP on those bounds, and layers to full
	// depth just the partitions whose bound the optimum touches
	// (everything, before ε may escalate on an infeasible solve),
	// re-solving after each deepening, so a stage solves at most one LP per
	// partition it finishes plus one per ε tried. StageDeepened counts the
	// partitions a stage finished (0 = the rim was enough; P = a full
	// layering), StageLPSolves its LPs. The accepted flows have the
	// full-depth LP's ε and objective either way.
	StageDeepened []int
	StageLPSolves []int
	// BalanceMoved counts vertices moved for load balance.
	BalanceMoved int
	// LPVars and LPCons are the dense-formulation dimensions of the largest
	// balance LP (the paper's v and c). Under a tolerance they include the
	// P slack columns and their bounds.
	LPVars, LPCons int
	// LPIterations is the total simplex pivots across every balance stage
	// and refinement round.
	LPIterations int
	// RefineMoved counts the vertices refinement moved over RefineRounds
	// applied LP rounds. RefineStrictFrom counts the loose (≥ 0 gain)
	// rounds; RefineStop says why refinement ended: "cap", "no-candidates",
	// "no-gain", "cycle" (the round cap's result, reached early),
	// "unsolved" (an LP hit its pivot cap) or "canceled" (see refine.Drive).
	// A batched run reports the last batch's StrictFrom and Stop.
	RefineMoved      int
	RefineRounds     int
	RefineStrictFrom int
	RefineStop       string
	// RoundPivots lists the pivots of every refinement LP solved, in round
	// order (including a final round whose solution was not applied).
	// RoundCuts is the cut weight after every applied round and RoundMoved
	// the vertices that round moved (len == RefineRounds; RoundMoved sums
	// to RefineMoved) — the cut-vs-round and cost-vs-round curves. Every
	// entry is an exact report of the engine's tracked cut, like
	// CutBefore/CutAfter, whatever the edge weights.
	RoundPivots []int
	RoundCuts   []float64
	RoundMoved  []int
	// CutBefore and CutAfter report cutset quality around balancing and
	// refinement.
	CutBefore, CutAfter partition.CutStats
	// PhaseTimings is the per-phase wall-clock breakdown.
	PhaseTimings PhaseTimings
	// Elapsed is the wall clock of the whole Repartition call, measured
	// inside the engine so it covers exactly the pipeline (not callers'
	// option conversion). It is set even when Repartition errors.
	Elapsed time.Duration
	// Parallelism is the worker count the engine's sharded kernels ran
	// with (1 = every region one shard, run inline).
	Parallelism int
	// WorkerBusy is the per-worker busy wall clock summed over every
	// parallel region of the call (boundary sync, layering BFS, gain scans,
	// the V-cycle); index w is worker w. It is empty at one worker.
	// Comparing the sum against Elapsed shows how much of the pipeline
	// actually fanned out.
	WorkerBusy []time.Duration
	// CSRPatched counts snapshot refreshes during this call served by the
	// journal-driven partial CSR patch (only the touched rows rewritten)
	// rather than a full O(n+m) rebuild. On a warm engine absorbing small
	// edits it equals the number of refreshes; zero means every refresh
	// rebuilt (first call, journal overflow, slot overflow, high churn, or
	// Options.FullRefresh).
	CSRPatched int
	// SyncDiffs counts this call's syncs that compared all n assignment
	// slots (a diff or a boundary rebuild): its entry, after a V-cycle, and
	// any whose log of the engine's own writes outgrew n/64 entries; the
	// others followed that log.
	SyncDiffs int
	// CutIncremental counts the cut reports this call summed from the
	// engine's tracked per-vertex cut terms — one pass over the maintained
	// partition-boundary list, no arc visited, bit-identical to
	// partition.Cut's rescan — and CutReused the reports it copied, at
	// O(P), from the kept one because nothing they depend on had been
	// re-examined. The reports are CutBefore, CutAfter when refinement is
	// off, and refinement's: one on entry, one after every applied round
	// (RoundCuts) and the closing one, which is CutAfter, when any round was
	// applied.
	CutIncremental int
	CutReused      int
	// VCycleSkipped reports that Options.Multilevel (igp.WithMultilevel)
	// is on and the call arrived within Tolerance of its targets, so — like
	// every other balancing stage — the V-cycle did not run: the hierarchy
	// was left as it was, the V-cycle fields below and the Coarsen/Uncoarsen
	// timings are zero, and no PhaseCoarsen or PhaseUncoarsen event was
	// emitted.
	VCycleSkipped bool
	// Levels reports the hierarchy bottom-up: sizes, repair-vs-rebuild
	// outcome and timings of each coarse level. It is empty when the
	// V-cycle is disabled or was skipped.
	Levels []LevelStats
	// HierarchyRepaired reports that every pre-existing hierarchy level was
	// repaired from the graph's edit journal this call — the warm V-cycle
	// path — instead of any of them being recoarsened (the journal no
	// longer covers the edits since the hierarchy was last consulted,
	// dead-slot bloat, a partition-count change, a coarsening stall). The
	// repair covers everything since the hierarchy was last consulted,
	// skipped calls included.
	HierarchyRepaired bool
	// SpectralInit reports that the coarsest graph was partitioned from
	// scratch by recursive spectral bisection (degenerate incoming
	// assignment) rather than rebalanced by the weighted balance LP.
	SpectralInit bool
	// CoarseMoved is the level-0 vertex weight the coarsest solve moved,
	// and VCycleRefined counts the greedy refinement moves applied across
	// all uncoarsening levels (BalanceMoved/RefineMoved count the fine
	// polish separately).
	CoarseMoved   int
	VCycleRefined int
}

// Clone returns a deep copy of the Stats, detached from any engine arena:
// unlike the value an Engine returns, which is overwritten by the engine's
// next call, a clone stays valid forever.
func (s *Stats) Clone() *Stats {
	c := *s
	c.EpsilonUsed = slices.Clone(s.EpsilonUsed)
	c.StageMoved = slices.Clone(s.StageMoved)
	c.StagePivots = slices.Clone(s.StagePivots)
	c.StageDeepened = slices.Clone(s.StageDeepened)
	c.StageLPSolves = slices.Clone(s.StageLPSolves)
	c.RoundPivots = slices.Clone(s.RoundPivots)
	c.RoundCuts = slices.Clone(s.RoundCuts)
	c.RoundMoved = slices.Clone(s.RoundMoved)
	c.CutBefore.PerPart = slices.Clone(s.CutBefore.PerPart)
	c.CutAfter.PerPart = slices.Clone(s.CutAfter.PerPart)
	c.WorkerBusy = slices.Clone(s.WorkerBusy)
	c.Levels = slices.Clone(s.Levels)
	return &c
}

// reset readies a Stats arena for reuse, keeping every list's capacity
// (the cut PerPart vectors are the engine's own arenas).
func (s *Stats) reset() {
	*s = Stats{
		EpsilonUsed:   s.EpsilonUsed[:0],
		StageMoved:    s.StageMoved[:0],
		StagePivots:   s.StagePivots[:0],
		StageDeepened: s.StageDeepened[:0],
		StageLPSolves: s.StageLPSolves[:0],
		RoundPivots:   s.RoundPivots[:0],
		RoundCuts:     s.RoundCuts[:0],
		RoundMoved:    s.RoundMoved[:0],
		WorkerBusy:    s.WorkerBusy[:0],
		Levels:        s.Levels[:0],
	}
}

// AddBatch folds b, the Stats of the next batch of a batched repartition
// (igp.WithBatches, the paper's §2.3 fallback), into s, the batches before
// it: counters, phase times and per-worker busy times sum, the per-stage
// and per-round lists concatenate (so Stages is the total stage count),
// LPVars/LPCons keep the largest balance LP, CutBefore stays the first
// batch's, and everything else — CutAfter, the refinement stop,
// Parallelism, the V-cycle's flags and Levels — is the last batch's. s
// must own its lists (a Clone).
func (s *Stats) AddBatch(b *Stats) {
	s.NewAssigned += b.NewAssigned
	s.ClusterFallbacks += b.ClusterFallbacks
	s.Stages += b.Stages
	s.EpsilonUsed = append(s.EpsilonUsed, b.EpsilonUsed...)
	s.StageMoved = append(s.StageMoved, b.StageMoved...)
	s.StagePivots = append(s.StagePivots, b.StagePivots...)
	s.StageDeepened = append(s.StageDeepened, b.StageDeepened...)
	s.StageLPSolves = append(s.StageLPSolves, b.StageLPSolves...)
	s.BalanceMoved += b.BalanceMoved
	if b.LPVars > s.LPVars {
		s.LPVars, s.LPCons = b.LPVars, b.LPCons
	}
	s.LPIterations += b.LPIterations
	s.RefineMoved += b.RefineMoved
	s.RefineRounds += b.RefineRounds
	s.RefineStrictFrom, s.RefineStop = b.RefineStrictFrom, b.RefineStop
	s.RoundPivots = append(s.RoundPivots, b.RoundPivots...)
	s.RoundCuts = append(s.RoundCuts, b.RoundCuts...)
	s.RoundMoved = append(s.RoundMoved, b.RoundMoved...)
	s.CutAfter = b.CutAfter
	t, bt := &s.PhaseTimings, b.PhaseTimings
	t.Assign += bt.Assign
	t.Coarsen += bt.Coarsen
	t.Uncoarsen += bt.Uncoarsen
	t.Layer += bt.Layer
	t.Balance += bt.Balance
	t.Refine += bt.Refine
	s.Elapsed += b.Elapsed
	s.Parallelism = b.Parallelism
	for w, d := range b.WorkerBusy {
		if w == len(s.WorkerBusy) {
			s.WorkerBusy = append(s.WorkerBusy, 0)
		}
		s.WorkerBusy[w] += d
	}
	s.CSRPatched += b.CSRPatched
	s.SyncDiffs += b.SyncDiffs
	s.CutIncremental += b.CutIncremental
	s.CutReused += b.CutReused
	s.VCycleSkipped, s.HierarchyRepaired, s.SpectralInit = b.VCycleSkipped, b.HierarchyRepaired, b.SpectralInit
	s.Levels = append(s.Levels[:0], b.Levels...)
	s.CoarseMoved += b.CoarseMoved
	s.VCycleRefined += b.VCycleRefined
}
