// Package engine is the hot-path repartitioning machine: a long-lived
// object that owns every piece of derived state the four-phase IGP
// pipeline needs, so that repeated Repartition calls over an evolving
// graph cost work proportional to what changed — not to the whole graph —
// and allocate (near) nothing in steady state.
//
// # Lifecycle and epoching
//
// An Engine is bound to one *graph.Graph at construction and consumes the
// graph's edit epoch (graph.Epoch) plus its bounded edit journal
// (graph.TouchedSince):
//
//   - The CSR snapshot (flat compressed-sparse-row arrays, the layout the
//     layering and gains kernels traverse) is refreshed in place — reusing
//     its arrays — only when the graph's epoch has moved since the last
//     refresh. Within one Repartition call the graph does not change, so
//     every stage and refinement round shares one snapshot.
//
//   - The partition-boundary set (every live vertex with at least one
//     neighbor in a different partition) is maintained incrementally. When
//     the journal covers the edits since the last sync, only the journaled
//     vertices, the vertices whose assignment changed since the engine
//     last looked, and the neighbors of the moved ones are re-examined;
//     a full O(n+m) boundary rebuild happens only on the first sync or
//     after journal overflow. The set is id-ordered (bitset + ascending
//     list, see boundary.go), so nothing sorts it. The layering and
//     refinement kernels seed from it, so their level-0/candidate passes
//     never scan the full arc array.
//
//   - Layering is on demand: a balancing stage labels only the rim of
//     every partition, solves its LP on those bounds and layers to full
//     depth just the partitions with a bound the optimum binds — reaches
//     with a strictly negative reduced cost (balanceStage); a pool is
//     ordered when the mover first asks for it.
//
//   - The cut is tracked state. The row scan that decides an examined
//     vertex's boundary membership also yields its cut term — the weights
//     of its arcs to assigned vertices of another partition, summed in row
//     order, and their count — stored by the sync that examined the
//     vertex. A vertex's term can change only when
//     its row, its partition or a neighbour's partition does, which is
//     exactly when sync re-examines it, so a cut report is one pass over
//     the ascending boundary list adding stored terms (evalCut) — the very
//     additions partition.Cut performs, in its order, so the two agree bit
//     for bit on any float weights. Partition sizes are read from the same
//     tracker, the last report is kept and copied at O(P) until a sync
//     rebuilds or re-examines a vertex (Stats.CutIncremental /
//     Stats.CutReused), and inside a call — where the engine alone writes
//     the assignment, and logs its writes — a sync follows that log: a
//     call pays one O(n) diff, at entry, not one per write (SyncDiffs).
//
//   - The refinement candidate pools are derived state of the same kind,
//     kept from the first Gains call on. A vertex's class (pair pool and
//     gain) can change only when sync re-examines it, so while pools are
//     kept the row read sync pays per re-examined vertex also yields its
//     class (refine.Scratch.Reclassify stores it and logs a change), and
//     the next Gains reads no row: it rebuilds only the pair pools the
//     logged vertices entered or left (refine.Scratch.GainsPatched). An
//     engine that never calls Gains never classifies. A boundary rebuild,
//     or a log longer than the boundary, falls back to the boundary-seeded
//     scan. A refinement round therefore costs O(Σ deg(moved ∪ N(moved)))
//     plus one report: the driver (refine.Drive) reads the cut after every
//     round from the tracked terms; its last report is the call's CutAfter.
//
// # Scratch reuse rules
//
// The layering result, the refinement candidate pools, the balance size
// and target vectors and the refinement driver's move log are all arenas
// owned by the engine. They are grown to
// the largest graph seen and then reused: results returned by Layer and
// Gains are valid only until the engine's next call. An Engine is not safe
// for concurrent use; independent goroutines (e.g. simulated SPMD ranks)
// each own one.
//
// Correctness does not depend on the incrementality: the boundary set is
// kept exact (equivalence-fuzzed against the full scan in the tests), a
// seeded layering of an exact boundary is bit-identical to the one-shot
// full-scan layering, and patched candidate pools equal a fresh scan's
// (FuzzRefineIncremental).
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/balance"
	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/refine"
)

// ErrNeedRepartition is the error of a call the incremental pipeline
// cannot serve: the assignment has no assigned vertex for phase 1 to
// grow from, so the remedy is a from-scratch partition. No other error
// matches it: balancing never fails — where the balance LP cannot carry
// the surplus, the spill pass moves it (see spill).
var ErrNeedRepartition = errors.New("engine: no assigned vertex; repartition from scratch")

// ErrClosed reports a call on an engine whose session was ended by
// Close. A closed engine never becomes usable again; create a new one.
var ErrClosed = errors.New("engine: closed; create a new engine")

// ErrInvalidAssignment is matched by Repartition's error for an
// assignment with P < 1 or a partition id outside [Unassigned, P).
var ErrInvalidAssignment = errors.New("engine: invalid assignment")

// CheckP returns an error matching ErrInvalidAssignment when a.P < 1.
func CheckP(a *partition.Assignment) error {
	if a.P < 1 {
		return fmt.Errorf("%w: P = %d, want at least 1", ErrInvalidAssignment, a.P)
	}
	return nil
}

// CheckID returns an error matching ErrInvalidAssignment, naming v, its
// partition id and P, when the id lies outside [Unassigned, a.P).
func CheckID(a *partition.Assignment, v graph.Vertex) error {
	if p := a.Part[v]; p < partition.Unassigned || int(p) >= a.P {
		return fmt.Errorf("%w: vertex %d has partition %d (P = %d)", ErrInvalidAssignment, v, p, a.P)
	}
	return nil
}

// Options configures an Engine (and the one-shot igp.Repartition wrapper).
type Options struct {
	// Solver is the simplex implementation (nil = lp.Default()). A
	// solver implementing lp.SessionSolver is forked at New: the engine
	// session holds a private instance whose arenas live exactly as long
	// as the engine.
	Solver lp.Solver
	// Tolerance allows partition sizes to deviate from their targets by
	// up to this many vertices (0 = the paper's exact balance). Positive
	// values trade residual imbalance for less vertex movement.
	Tolerance int
	// Refine enables phase 4 (the IGPR variant).
	Refine bool
	// Observer, if non-nil, receives stage-level Events during
	// Repartition (see Event for the ordering contract).
	Observer func(Event)
	// Parallelism is not used: the engine runs on the calling goroutine.
	// The field stays for the one caller outside the repository's root
	// module that still sets it (benchmarks/harness, until ROADMAP item
	// 1(a) may edit it).
	//
	// Deprecated: it has no effect.
	Parallelism int
	// Multilevel enables the V-cycle mode for large graphs: coarsen by
	// same-partition heavy-edge matching down to a cheap size, solve the
	// coarsest graph (weighted balance LP, or spectral init when the
	// assignment is degenerate), then uncoarsen with per-level greedy
	// refinement — all between phase 1 and the balancing stage loop,
	// which becomes the fine polish. It is a balancing stage: a call that
	// arrives within Tolerance of its targets skips it
	// (Stats.VCycleSkipped). A call that runs it builds its hierarchy
	// and drops it on return, so a warm engine's output is a fresh
	// engine's on the same graph and assignment. Disabled (the zero
	// value), the flat pipeline is untouched.
	Multilevel MultilevelOptions
	// FullRefresh disables every delta shortcut in the derived-state
	// pipeline: CSR snapshots are fully rebuilt instead of patched from
	// the edit journal, the boundary set is rebuilt from scratch on
	// every edit and every sync diffs, cutset statistics and partition
	// sizes come from partition.Cut's and Sizes' full rescans, the
	// refinement candidate pools are rescanned from the boundary every
	// round instead of patched, and phase 1 runs the one-shot Assign
	// oracle. Results are bit-identical either way (the incremental paths
	// are fuzz-verified against these oracles); the switch exists as an
	// escape hatch and a divergence-debugging lever.
	FullRefresh bool
}

func (o Options) solver() lp.Solver {
	if o.Solver == nil {
		return lp.Default()
	}
	return o.Solver
}

// maxStages caps the balancing stages of one Repartition call.
const maxStages = 16

// Engine owns the long-lived repartitioning state for one graph. Create
// with New, then call Repartition after each batch of graph edits. The
// zero value is not usable.
type Engine struct {
	g      *graph.Graph
	opt    Options
	closed bool

	// Snapshot state.
	synced bool
	epoch  uint64
	csr    *graph.CSR

	// Incremental boundary tracker.
	prevPart []int32        // assignment at the last sync (-2 = never seen)
	bnd      idSet          // the boundary set, listed ascending
	stamps   par.Stamps     // vertices a sync has re-examined
	inCall   bool           // inside Repartition: only the engine writes a,
	wroteAll bool           // and any slot may differ from prevPart
	written  []graph.Vertex // or only those it logged since (see sync)

	// Incremental partition-size and cut tracker: partSizes[q] is the
	// live assigned-vertex count of partition q as of the last sync
	// (exactly partition.SizesInto's definition), maintained through the
	// same journal/diff re-examination that keeps the boundary exact;
	// sizeAttr[v] is the partition v is currently counted under (-1 =
	// none). ext[v] and extN[v] are v's cut term as of that examination:
	// the weights of its arcs to assigned vertices of another partition,
	// summed in row order, and their count (see rowTerm). A cut report is a
	// sum of the terms over the boundary list (evalCut); cut keeps the last
	// one, and cutValid holds until a sync rebuilds or re-examines a vertex.
	trackedP  int          // partition count the tracker was built for
	badID     graph.Vertex // a vertex with an out-of-range id the last sync examined, or −1
	partSizes []int
	sizeAttr  []int32
	ext       []float64
	extN      []int32
	cut       partition.CutStats
	cutValid  bool
	cutPPB    []float64 // PerPart arena for Stats.CutBefore
	cutPPA    []float64 // PerPart arena for Stats.CutAfter
	cutPPQ    []float64 // PerPart arena for the Cut accessor

	// Running delta-pipeline counters since the engine was created;
	// Repartition reports the per-call deltas in Stats, so work done through
	// the public accessors between calls never mutates a previously
	// returned Stats arena.
	csrPatched int
	syncDiffs  int
	cutEvals   int
	cutReused  int

	// Pending-unassigned tracker feeding the delta-aware phase 1: every
	// vertex observed live-but-Unassigned (or dead with a stale
	// assignment) by a sync re-examination, carried — listed ascending —
	// until the next assign call consumes it. See assign.go.
	pending idSet
	asg     assignScratch

	// Candidate-pool cache. Once Gains has run, gainsValid says e.gain
	// holds the pools of the state Gains last saw and every vertex's class
	// as of the last sync (recompute reclassifies what it re-examines), and
	// gainDirty logs each class change since, with the pool left, in sync
	// order: a vertex several syncs reclassify ends in its last class. The
	// next Gains patches the pools from it. Nothing is classified or logged
	// before the first Gains call.
	gainsValid bool
	gainDirty  []refine.Reclass
	row        refine.RowScan // the row kernel's arena for Reclassify

	// Scratch arenas.
	lay      layering.Scratch
	gain     refine.Scratch
	balArena balance.Arena
	refArena refine.LPArena
	touchBuf []graph.Vertex
	targets  []int
	flowBuf  []balance.Flow // per-stage flow arena (see balanceStage)
	deepen   []int32        // partitions a stage is about to finish
	// The reused result arena (see Repartition), allocated apart from the
	// engine so a Stats a caller keeps does not keep the engine's arenas.
	stats *Stats
}

// neverSeen marks prevPart slots the engine has not synced yet; it never
// compares equal to a real partition id or Unassigned.
const neverSeen int32 = -2

// New returns an engine bound to g. The first Repartition (or Layer/Gains)
// call pays a full snapshot build; later calls are incremental.
//
// Session solvers (lp.SessionSolver) are forked here: the engine session
// owns a private instance whose arenas live exactly as long as the
// engine, so the state of one engine's balance/refine LP stream is never
// shared with another engine. The balance and refine phases share that
// one session and its arenas.
func New(g *graph.Graph, opt Options) *Engine {
	e := &Engine{g: g, stats: new(Stats)}
	opt.Solver = lp.Session(opt.solver())
	e.opt = opt
	return e
}

// Graph returns the graph the engine is bound to (also after Close).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Closed reports whether Close has ended this engine session.
func (e *Engine) Closed() bool { return e.closed }

// Close ends the engine session and releases everything it owns: the
// CSR snapshot, the boundary/size/pending trackers, every scratch
// arena, and the sessionized LP solvers with their
// arenas. A session pool evicting an idle engine
// calls Close so the memory is reclaimed deterministically rather than
// when the GC happens to notice.
//
// Invalidation hazard: everything the engine ever handed out points
// into those arenas — the *Stats returned by Repartition, Layer and
// Gains results, Boundary views, and CutStats.PerPart slices are all
// invalid after Close (clone what must outlive the session first, e.g.
// Stats.Clone). After Close, Repartition, Layer and Gains fail with an
// error matching ErrClosed; Boundary returns nil. Close is idempotent
// and always returns nil. The graph is caller-owned and is not touched.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	// Drop every arena and the LP sessions in one sweep; keep only the
	// graph binding, the identity bits, and the closed flag.
	*e = Engine{g: e.g, closed: true}
	return nil
}

// Boundary syncs and returns the current partition-boundary vertex set.
// The slice is owned by the engine, ascending, duplicate-free, and valid
// until the next engine call; it is nil after Close.
func (e *Engine) Boundary(a *partition.Assignment) []graph.Vertex {
	if e.closed {
		return nil
	}
	e.sync(a)
	return e.bnd.list
}

// growTo readies the tracker arrays for an order-n graph.
func (e *Engine) growTo(n int) {
	if old := len(e.prevPart); old < n {
		e.prevPart, e.sizeAttr = par.Sized(e.prevPart, n), par.Sized(e.sizeAttr, n)
		for v := old; v < n; v++ {
			e.prevPart[v], e.sizeAttr[v] = neverSeen, -1
		}
		e.ext, e.extN = par.Sized(e.ext, n), par.Sized(e.extN, n)
	}
	e.bnd.grow(n)
	e.pending.grow(n)
	e.stamps.Grow(n)
}

// sync brings the CSR snapshot, the boundary set and the size/cut
// tracker up to date with the graph and the given assignment: it
// re-examines the journaled vertices and those whose partition changed,
// with their neighbours. Outside a Repartition call the caller may have
// written anything, so it diffs all n slots; inside one the engine alone
// writes and logs its writes (phase 1, balance stages, refinement), so it
// visits just those — an empty log is O(1) — unless the call just began
// or ran the V-cycle (wroteAll), the log outgrew n/diffBlock entries or
// FullRefresh, the reference, is set. A membership change costs the
// O(n/64 + boundary) relist; the snapshot refresh is journal-driven
// (graph.RefreshCSR). Nothing is allocated once the arenas have grown.
func (e *Engine) sync(a *partition.Assignment) {
	a.Grow(e.g.Order())
	e.badID = -1
	// With the graph unchanged nothing is journaled: only assignment
	// moves can alter the boundary.
	var touched []graph.Vertex
	rebuild := a.P != e.trackedP
	if !e.synced || e.g.Epoch() != e.epoch {
		var exact bool
		touched, exact = e.g.TouchedSince(e.epoch, e.touchBuf[:0])
		e.touchBuf = touched[:0]
		if e.opt.FullRefresh {
			e.csr = e.g.RebuildCSRInto(e.csr)
			exact = false // and rebuild the boundary/size tracker too
		} else {
			var patched bool
			e.csr, patched = e.g.RefreshCSR(e.csr)
			if patched {
				e.csrPatched++
			}
		}
		rebuild = rebuild || !e.synced || !exact
		e.epoch = e.g.Epoch()
		e.synced = true
	} else if e.inCall && !e.wroteAll && len(e.written) == 0 && !rebuild && !e.opt.FullRefresh {
		return
	}
	diff := rebuild || !e.inCall || e.wroteAll || e.opt.FullRefresh || len(e.written) > e.csr.Order()/diffBlock
	if diff {
		e.syncDiffs++
	}
	if rebuild {
		e.rebuildBoundary(a)
	} else {
		e.resync(a, touched, diff)
	}
	e.wroteAll, e.written = false, e.written[:0]
	if e.badID >= 0 {
		e.synced = false // the tracker skipped the bad id: rebuild next time
	}
}

// attrOf returns the partition v should be size-counted under: its
// assigned partition when live, none otherwise (partition.SizesInto's
// exact rule). Every vertex a sync examines passes here, so this is
// where an id outside [Unassigned, P) — p+1 outside [0, P] — is caught:
// it counts nowhere and is kept in e.badID.
func (e *Engine) attrOf(v graph.Vertex, a *partition.Assignment) int32 {
	p := a.Part[v]
	if uint(p+1) > uint(a.P) {
		e.badID, p = v, -1
	}
	if !e.csr.Live[v] {
		return -1
	}
	return p
}

// moveAttr moves v's size attribution to its current partition,
// adjusting the size counters.
func (e *Engine) moveAttr(v graph.Vertex, a *partition.Assignment) {
	want := e.attrOf(v, a)
	if old := e.sizeAttr[v]; want != old {
		if old >= 0 {
			e.partSizes[old]--
		}
		if want >= 0 {
			e.partSizes[want]++
		}
		e.sizeAttr[v] = want
	}
}

// collectPending enters v into the pending set for the next delta-aware
// assign call when it needs phase-1 attention: live but Unassigned (a new
// vertex), or dead with a stale assignment left behind (to be
// normalized). assign clears it when it consumes the entry.
func (e *Engine) collectPending(v graph.Vertex, a *partition.Assignment) {
	if e.pending.has(v) {
		return
	}
	live := e.csr.Live[v]
	p := a.Part[v]
	if (live && p < 0) || (!live && p >= 0) {
		e.pending.add(v)
	}
}

// rowTerm is the one row scan a sync pays per examined vertex while no
// candidate pools are kept (else refine.RowScan.Scan, which also
// classifies): whether v is a boundary vertex (live with ≥1 neighbor in
// another partition) and v's cut term — the weights of its arcs to
// assigned vertices of another partition, added in row order, and their
// count; zero for a dead or unassigned v.
func (e *Engine) rowTerm(v graph.Vertex, a *partition.Assignment) (boundary bool, ext float64, n int32) {
	if !e.csr.Live[v] {
		return false, 0, 0
	}
	pv := a.Part[v]
	ws := e.csr.RowWeights(v)
	for i, u := range e.csr.Row(v) {
		pu := a.Part[u]
		if pu == pv {
			continue
		}
		boundary = true
		if pu >= 0 && pv >= 0 {
			ext += ws[i]
			n++
		}
	}
	return boundary, ext, n
}

// diffBlock is how many assignment slots nextMoved compares at a time:
// a fixed-size array comparison compiles to one memequal, so the
// unchanged bulk of the assignment is skipped at memory speed — faster
// than walking a write log of more than n/diffBlock entries.
const diffBlock = 64

// nextMoved returns the first vertex in [lo, hi) whose partition differs
// from the last sync's, or hi.
func (e *Engine) nextMoved(a *partition.Assignment, lo, hi int) int {
	part, prev := a.Part, e.prevPart
	for lo < hi {
		if hi-lo >= diffBlock && *(*[diffBlock]int32)(part[lo:]) == *(*[diffBlock]int32)(prev[lo:]) {
			lo += diffBlock
			continue
		}
		for end := min(lo+diffBlock, hi); lo < end; lo++ {
			if part[lo] != prev[lo] {
				return lo
			}
		}
	}
	return hi
}

// cutStatsInto syncs and fills dst with the cutset statistics of the
// synced state — bit-identical to partition.Cut(e.g, a), floats included:
// summed from the stored terms (evalCut) unless a report of this state is
// kept, then copied. perPart is the engine-owned PerPart arena of the
// report slot.
func (e *Engine) cutStatsInto(dst *partition.CutStats, perPart *[]float64, a *partition.Assignment) {
	e.sync(a)
	reused := e.cutValid
	if reused {
		e.cutReused++
	} else {
		e.evalCut(a)
		e.cutValid = true
		e.cutEvals++
	}
	*perPart = append((*perPart)[:0], e.cut.PerPart...)
	*dst = e.cut
	dst.PerPart = *perPart
	if e.inCall {
		e.emit(Event{Kind: EventCut, Reused: reused})
	}
}

// evalCut sums the stored cut terms over the ascending boundary list into
// e.cut: O(boundary) loads, no arc is visited. A vertex outside the list
// has a zero term and every listed vertex's term was written by the sync
// that last examined it, so these are partition.Cut's additions in
// partition.Cut's order.
func (e *Engine) evalCut(a *partition.Assignment) {
	perPart := par.Sized(e.cut.PerPart, a.P)
	clear(perPart)
	arcs, weight := 0, 0.0
	for _, v := range e.bnd.list {
		if pv := a.Part[v]; pv >= 0 {
			perPart[pv] += e.ext[v]
			weight += e.ext[v]
			arcs += int(e.extN[v])
		}
	}
	e.cut.PerPart = perPart
	e.cut.Finish(arcs, weight, e.partSizes)
}

// Cut syncs and reports cutset statistics for the engine's graph under
// a, maintained incrementally (or via the full rescan when
// Options.FullRefresh is set). The result's PerPart is an engine-owned
// arena overwritten by the next Cut call (a previously returned
// Stats.CutBefore/CutAfter is not affected); the scalar fields are
// plain values. It is bit-identical to partition.Cut(e.Graph(), a).
func (e *Engine) Cut(a *partition.Assignment) partition.CutStats {
	if e.closed {
		return partition.CutStats{}
	}
	if e.opt.FullRefresh {
		return partition.Cut(e.g, a)
	}
	var st partition.CutStats
	e.cutStatsInto(&st, &e.cutPPQ, a)
	return st
}

// Layer runs the boundary-seeded layering kernel to full depth over the
// engine's snapshot (Repartition's stages layer on demand instead, see
// balanceStage). The result is owned by the engine's scratch and
// invalidated by the next Layer or Repartition call.
func (e *Engine) Layer(ctx context.Context, a *partition.Assignment) (*layering.Result, error) {
	if e.closed {
		return nil, ErrClosed
	}
	e.sync(a)
	return e.lay.LayerSeeded(ctx, e.csr, a, e.bnd.list)
}

// Gains returns the refinement candidate pools for a over the engine's
// snapshot — always exactly what a boundary-seeded scan would build. The
// first call (and any call after a boundary rebuild, a class log longer
// than the boundary, with vertices pending assignment, or under
// Options.FullRefresh) is that scan; otherwise the pools of the previous
// call are patched from the class changes sync has logged since. The
// result is owned by the engine's scratch and invalidated by the next
// Gains call.
func (e *Engine) Gains(a *partition.Assignment, strict bool) (*refine.Candidates, error) {
	if e.closed {
		return nil, ErrClosed
	}
	e.sync(a)
	var c *refine.Candidates
	var err error
	// A pending (live-unassigned or dead-but-assigned) vertex need not be
	// in the log; the scan's full validation is what rejects it.
	if e.gainsValid && len(e.pending.list) == 0 {
		c, err = e.gain.GainsPatched(e.csr, a, strict, e.gainDirty)
	} else {
		c, err = e.gain.GainsSeeded(e.csr, a, strict, e.bnd.list)
	}
	e.gainDirty = e.gainDirty[:0]
	e.gainsValid = err == nil && !e.opt.FullRefresh
	return c, err
}

// Repartition updates assignment a in place so it covers the engine's
// graph with balanced partitions and a small cutset, reusing the old
// partitioning. Vertices beyond a's original coverage — and any vertex
// explicitly set to partition.Unassigned — are treated as new. Repeated
// calls reuse the engine's snapshot, boundary set and scratch arenas.
//
// The context is honored throughout: between stages, per layering BFS
// level, and inside the simplex pivot loops. A done context aborts with
// an error matching cancel.ErrCanceled that wraps context.Cause; the
// assignment is never left mid-move — every vertex stays validly
// assigned (though possibly unbalanced) after an abort.
//
// The returned *Stats is an arena owned by the engine: it is
// overwritten by the next Repartition call. Use Stats.Clone to retain
// one (a shallow copy is not enough — its lists and the cut PerPart
// vectors point into the arena).
func (e *Engine) Repartition(ctx context.Context, a *partition.Assignment) (*Stats, error) {
	if e.closed {
		return nil, ErrClosed
	}
	st := e.stats
	st.reset()
	opt := e.opt
	basePatched, baseDiffs, baseEvals, baseReused := e.csrPatched, e.syncDiffs, e.cutEvals, e.cutReused
	e.inCall, e.wroteAll = true, true // the caller may have edited a
	tStart := time.Now()
	defer func() {
		e.inCall = false
		st.Elapsed = time.Since(tStart)
		st.CSRPatched = e.csrPatched - basePatched
		st.SyncDiffs = e.syncDiffs - baseDiffs
		st.CutIncremental = e.cutEvals - baseEvals
		st.CutReused = e.cutReused - baseReused
	}()

	if err := cancel.Check(ctx, "repartition"); err != nil {
		return st, err
	}
	if err := CheckP(a); err != nil {
		return st, err
	}
	t0 := time.Now()
	e.emit(Event{Kind: EventStart, Phase: PhaseAssign})
	assigned, fallbacks, err := e.assign(a)
	if err != nil {
		e.emit(Event{Kind: EventEnd, Phase: PhaseAssign, Elapsed: time.Since(t0)})
		return st, err
	}
	st.NewAssigned = assigned
	st.ClusterFallbacks = fallbacks
	st.PhaseTimings.Assign = time.Since(t0)
	e.emit(Event{Kind: EventEnd, Phase: PhaseAssign, Moved: assigned, Elapsed: st.PhaseTimings.Assign})
	if e.opt.FullRefresh {
		st.CutBefore = partition.Cut(e.g, a)
	} else {
		e.cutStatsInto(&st.CutBefore, &e.cutPPB, a)
	}

	if cap(e.targets) < a.P {
		e.targets = make([]int, a.P)
	}
	e.targets = partition.TargetsInto(e.targets, e.g.NumVertices(), a.P)
	targets := e.targets
	if opt.Multilevel.Enabled {
		// The V-cycle is a balancing stage and sits under the stage loop's
		// own test: a call that arrives within tolerance has nothing for the
		// coarse LP to move, so no hierarchy is built (see multilevel.go).
		if maxAbsDev(e.liveSizes(a), targets) > opt.Tolerance {
			e.wroteAll = true // projections and per-level moves: the next sync diffs
			if err := e.runMultilevel(ctx, a); err != nil {
				return st, err
			}
		} else {
			st.VCycleSkipped = true
		}
	}
	for stage := 0; stage < maxStages; stage++ {
		if err := cancel.Check(ctx, "balance stage"); err != nil {
			return st, err
		}
		sizes := e.liveSizes(a)
		if maxAbsDev(sizes, targets) <= opt.Tolerance {
			break
		}
		// Layer on demand: the stage starts from the rim of every partition
		// and finishes only those the balance LP asks for.
		tL := time.Now()
		e.emit(Event{Kind: EventStart, Phase: PhaseLayer, Stage: stage + 1})
		e.sync(a)
		lay, err := e.lay.Rim(e.csr, a, e.bnd.list)
		dL := time.Since(tL)
		st.PhaseTimings.Layer += dL
		e.emit(Event{Kind: EventEnd, Phase: PhaseLayer, Stage: stage + 1, Elapsed: dL})
		if err != nil {
			return st, err
		}

		tB := time.Now()
		e.emit(Event{Kind: EventStart, Phase: PhaseBalance, Stage: stage + 1})
		layered := st.PhaseTimings.Layer
		end, ok, err := e.balanceStage(ctx, a, lay, sizes, targets)
		dB := time.Since(tB)
		st.PhaseTimings.Balance += dB - (st.PhaseTimings.Layer - layered)
		// The span closes on every path, so observers pairing start/end
		// events never leak an open one.
		end.Kind, end.Phase, end.Stage, end.Elapsed = EventEnd, PhaseBalance, stage+1, dB
		e.emit(end)
		if err != nil {
			return st, err
		}
		if !ok {
			// Infeasible at every ε, or relaxed until it can move nothing:
			// iterating further changes nothing.
			break
		}
	}
	if sizes := e.liveSizes(a); maxAbsDev(sizes, targets) > opt.Tolerance {
		tS := time.Now()
		st.Spilled = e.spill(a, sizes, targets)
		st.BalanceMoved += st.Spilled
		st.PhaseTimings.Balance += time.Since(tS)
	}

	if opt.Refine {
		tR := time.Now()
		e.emit(Event{Kind: EventStart, Phase: PhaseRefine})
		err := e.runRefine(ctx, a)
		st.PhaseTimings.Refine = time.Since(tR)
		e.emit(Event{Kind: EventEnd, Phase: PhaseRefine, Moved: st.RefineMoved, Elapsed: st.PhaseTimings.Refine})
		if err != nil {
			return st, err
		}
	}
	if e.opt.FullRefresh {
		st.CutAfter = partition.Cut(e.g, a)
	} else if !opt.Refine { // else runRefine's last report was it
		e.cutStatsInto(&st.CutAfter, &e.cutPPA, a)
	}
	return st, nil
}

// liveSizes returns each partition's live-vertex count under a: the sync
// tracker's (valid until the next sync) or, under FullRefresh, a recount.
func (e *Engine) liveSizes(a *partition.Assignment) []int {
	if e.opt.FullRefresh {
		return a.Sizes(e.g)
	}
	e.sync(a)
	return e.partSizes
}

// balanceStage runs one LP→move stage on lay, the rim layering of the
// engine's scratch, escalating ε until feasible and deepening the
// layering only where the LP demands it. The rim bounds are lower bounds
// on the full-depth δ over the same pairs, and deepening only raises
// them. The optimum's reduced costs decide which raise could matter: a
// bound the flow does not reach, or one it reaches with reduced cost 0
// (degenerate-tight), keeps the same duals feasible and the same
// complementary slackness when it grows, so the optimum is optimal for
// the full-depth LP too. Only a bound at capacity with a strictly
// negative reduced cost binds (costs are integral, so the test is
// < −½), and exactly the unfinished source partitions with such a bound
// are finished and the LP re-solved — every such round finishes at least
// one more partition, so there are at most P of them. An infeasible solve
// finishes everything, so ε escalates only on the full-depth LP's
// verdict. The accepted flows have the full-depth stage's ε and
// objective, and every pool prefix the mover consumes is the full
// layering's. Formulations go through the engine's reused arena, so a
// steady-state stage allocates nothing building its LP. It returns the
// stage's balance EventEnd measurements (ε, moved, deepened, LP solves,
// tight bounds kept), filled on every path, and records an accepted
// stage in Stats; completion time goes to PhaseTimings.Layer. A
// relaxation whose supplies are all within the tolerance ends the stage
// not-ok before its solve, so an accepted stage moves at least one
// vertex.
func (e *Engine) balanceStage(ctx context.Context, a *partition.Assignment, lay *layering.Result, sizes, targets []int) (Event, bool, error) {
	var ev Event
	for eps := 1.0; eps <= balance.EpsilonMax; eps++ {
		for {
			m, err := e.balArena.FormulateTol(lay.Delta, sizes, targets, eps, e.opt.Tolerance)
			if err != nil {
				return ev, false, err
			}
			tol := e.opt.Tolerance
			if !slices.ContainsFunc(m.RHS, func(r int) bool { return r > tol || r < -tol }) {
				// Every supply is within the tolerance: zero flow is the
				// unique optimum (pair arcs cost 1) and moves nothing.
				return ev, false, nil
			}
			flows, sol, err := balance.SolveInto(ctx, m, e.opt.solver(), e.flowBuf)
			if flows != nil {
				e.flowBuf = flows // keep the grown backing array for the next stage
			}
			if err != nil {
				return ev, false, err
			}
			ev.LPSolves++
			var parts []int32
			if sol.Status != lp.Optimal { // infeasible: SolveInto errors on anything else
				parts = e.lay.All()
			} else {
				parts = e.deepen[:0]
				kept := 0
				for v, pr := range m.Pairs {
					if lay.Done(pr[0]) || math.Round(sol.X[v]) != float64(lay.Delta[pr[0]][pr[1]]) {
						continue
					}
					if sol.ReducedCost[v] < -0.5 {
						parts = append(parts, pr[0])
					} else {
						kept++
					}
				}
				e.deepen = parts
				if len(parts) == 0 {
					ev.TightKept = kept
					ev.Epsilon = eps
					ev.Moved, err = balance.Apply(a, lay, flows)
					if err != nil { // (an error ends the call; the next one diffs)
						return ev, false, err
					}
					for _, f := range flows {
						e.written = append(e.written, lay.Pool(f.From, f.To)[:f.Amount]...)
					}
					st := e.stats
					st.Stages++
					st.EpsilonUsed = append(st.EpsilonUsed, eps)
					st.StageMoved = append(st.StageMoved, ev.Moved)
					st.StagePivots = append(st.StagePivots, sol.Iterations)
					st.StageDeepened = append(st.StageDeepened, ev.Deepened)
					st.StageLPSolves = append(st.StageLPSolves, ev.LPSolves)
					st.StageTightKept = append(st.StageTightKept, ev.TightKept)
					st.BalanceMoved += ev.Moved
					st.LPIterations += sol.Iterations
					if v, c := lp.DenseSize(m.Prob); v > st.LPVars {
						st.LPVars, st.LPCons = v, c
					}
					return ev, true, nil
				}
			}
			tD := time.Now()
			n, err := e.lay.Complete(ctx, parts)
			e.stats.PhaseTimings.Layer += time.Since(tD)
			if err != nil {
				return ev, false, err
			}
			ev.Deepened += n
			if n == 0 {
				break // infeasible at full depth: relax further
			}
		}
	}
	return ev, false, nil
}

// spill ends a stage loop that left a partition off its target by more
// than the tolerance: the LP was infeasible at every ε, relaxed until it
// could move nothing, or the stages ran out. Each over-full partition, in
// id order, gives exactly its surplus — the vertices with the fewest arcs
// into it first, then by id — and each goes to the short partition it
// has the most arcs into, ties and vertices with no such arc to the
// lowest-numbered one. That moves Σ surplus vertices, the least any
// exact balance can, and always reaches the targets: after phase 1 every
// live vertex is assigned, so the sizes and the targets have the same sum
// and a partition with surplus left implies a short one. The writes go
// into e.written like a balance stage's; refinement polishes the cut. It
// runs only where a call used to fail, so it may allocate. It returns the
// vertices moved.
func (e *Engine) spill(a *partition.Assignment, sizes, targets []int) int {
	e.sync(a)
	sizes = slices.Clone(sizes) // e.partSizes catches up at the next sync
	type mover struct {
		part  int32
		inner int // arcs into its own partition
		v     graph.Vertex
	}
	var movers []mover
	for v := range graph.Vertex(e.csr.Order()) {
		q := a.Part[v]
		if !e.csr.Live[v] || q < 0 || sizes[q] <= targets[q] {
			continue
		}
		m := mover{part: q, v: v}
		for _, u := range e.csr.Row(v) {
			if a.Part[u] == q {
				m.inner++
			}
		}
		movers = append(movers, m)
	}
	slices.SortFunc(movers, func(x, y mover) int {
		return cmp.Or(cmp.Compare(x.part, y.part), cmp.Compare(x.inner, y.inner), cmp.Compare(x.v, y.v))
	})
	arcs := make([]int, a.P)
	low, moved := 0, 0 // low: the lowest-numbered short partition
	for _, m := range movers {
		q := m.part
		if sizes[q] == targets[q] {
			continue // this partition has given its surplus
		}
		for sizes[low] >= targets[low] {
			low++
		}
		row := e.csr.Row(m.v)
		for _, u := range row {
			if r := a.Part[u]; r >= 0 {
				arcs[r]++
			}
		}
		to := low
		for _, u := range row {
			if r := a.Part[u]; r >= 0 && sizes[r] < targets[r] && (arcs[r] > arcs[to] || arcs[r] == arcs[to] && int(r) < to) {
				to = int(r)
			}
		}
		for _, u := range row {
			if r := a.Part[u]; r >= 0 {
				arcs[r] = 0
			}
		}
		a.Part[m.v] = int32(to)
		sizes[q]--
		sizes[to]++
		e.written = append(e.written, m.v)
		moved++
	}
	return moved
}

// runRefine is the engine's phase 4: the shared refine.Drive loop fed
// with the engine's patched candidate pools, formulating into the
// engine's reused LP arena, solving on the engine's one LP session and
// turning each applied round into an EventRound. Drive asks for the cut
// on entry, after every applied round and for the assignment it leaves
// behind; each report goes into the CutAfter slot, so the last one is
// the call's CutAfter. Drive writes a — a round, a rollback — only
// between two reports, and its arena names those writes, so the
// evaluator logs them: the sync it pays re-examines what the round moved
// and their neighbours (nothing on entry or, without a rollback, at the
// close), and the next Gains skips its own. What Drive reports is copied
// into the flat refinement fields of Stats.
func (e *Engine) runRefine(ctx context.Context, a *partition.Assignment) error {
	opt := refine.Options{Solver: e.opt.Solver, Arena: &e.refArena}
	if e.opt.Observer != nil {
		opt.OnRound = func(round, moved int) {
			e.emit(Event{Kind: EventRound, Phase: PhaseRefine, Stage: round, Moved: moved})
		}
	}
	if !e.opt.FullRefresh {
		opt.CutWeight = func() float64 {
			e.written = e.refArena.AppendWritten(e.written)
			e.cutStatsInto(&e.stats.CutAfter, &e.cutPPA, a)
			return e.stats.CutAfter.TotalWeight
		}
	}
	rst, _, err := refine.Drive(ctx, e.g, a, opt, func(strict bool) (*refine.Candidates, error) {
		return e.Gains(a, strict)
	}, nil)
	st := e.stats
	st.RefineMoved, st.RefineRounds = rst.Moved, rst.Rounds
	st.RefineStrictFrom, st.RefineStop = rst.StrictFrom, rst.Stop
	st.RoundPivots = append(st.RoundPivots, rst.RoundPivots...)
	st.RoundCuts = append(st.RoundCuts, rst.RoundCuts...)
	st.RoundMoved = append(st.RoundMoved, rst.RoundMoved...)
	st.LPIterations += rst.Iterations
	return err
}

// Assign implements phase 1: every live vertex of g that a leaves
// Unassigned is mapped to the partition of the nearest assigned vertex.
// New vertices unreachable from any assigned vertex are grouped into
// connected clusters, each placed on the currently least-loaded partition
// (the paper's fallback rule). Returns the number of vertices assigned and
// the number of fallback clusters.
func Assign(g *graph.Graph, a *partition.Assignment) (assigned, clusterFallbacks int, err error) {
	a.Grow(g.Order())
	hasOld := false
	for v := 0; v < g.Order(); v++ {
		if g.Alive(graph.Vertex(v)) && a.Part[v] >= 0 {
			hasOld = true
			break
		}
	}
	if !hasOld {
		return 0, 0, ErrNeedRepartition
	}
	// Clear assignments of dead vertices (deleted since last time).
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			a.Part[v] = partition.Unassigned
		}
	}

	winner, _ := g.NearestLabeled(a.Part)
	var orphans []graph.Vertex
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) || a.Part[v] >= 0 {
			continue
		}
		if winner[v] >= 0 {
			a.Part[v] = winner[v]
			assigned++
		} else {
			orphans = append(orphans, graph.Vertex(v))
		}
	}
	if len(orphans) == 0 {
		return assigned, 0, nil
	}

	// Disconnected new clusters: place each whole component on the
	// least-loaded partition.
	sub, _, newToOld := g.InducedSubgraph(orphans)
	comp, nc := sub.Components()
	sizes := a.Sizes(g)
	clusters := make([][]graph.Vertex, nc)
	for sv, c := range comp {
		if c >= 0 {
			clusters[c] = append(clusters[c], newToOld[sv])
		}
	}
	for _, cluster := range clusters {
		best := 0
		for q := 1; q < a.P; q++ {
			if sizes[q] < sizes[best] {
				best = q
			}
		}
		for _, v := range cluster {
			a.Part[v] = int32(best)
			assigned++
		}
		sizes[best] += len(cluster)
		clusterFallbacks++
	}
	return assigned, clusterFallbacks, nil
}

func maxAbsDev(sizes, targets []int) int {
	d := 0
	for i := range sizes {
		dev := sizes[i] - targets[i]
		if dev < 0 {
			dev = -dev
		}
		if dev > d {
			d = dev
		}
	}
	return d
}
