package igp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cancel"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// ErrNeedRepartition is the error (batched calls wrap it with the batch
// number) of a call the incremental pipeline cannot serve: the
// assignment has no assigned vertex to grow from. Partition from scratch
// first ([PartitionRSB], or every vertex in partition 0 and one
// [WithMultilevel] call). Balancing itself never fails: where the
// balance LP cannot carry the surplus, a spill pass moves it
// ([Stats.Spilled]).
var ErrNeedRepartition = engine.ErrNeedRepartition

// ErrInvalidAssignment is matched by the error a call returns for an
// assignment with P < 1 or a partition id outside [Unassigned, P),
// naming the vertex, its id and P; no in-range entry was changed.
var ErrInvalidAssignment = engine.ErrInvalidAssignment

// ErrEngineClosed is returned by an [Engine] whose session was ended by
// [Engine.Close]. A closed engine never becomes usable again; create a
// new one with [NewEngine].
var ErrEngineClosed = engine.ErrClosed

// ErrEdgeWeight is matched (errors.Is) by the error of an edge weight
// that is not an integer ≥ 0, or that would raise the graph's total edge
// weight past MaxTotalEdgeWeight: from Graph.AddEdge, ReadGraph,
// Graph.Validate and the service's edits.
var ErrEdgeWeight = graph.ErrEdgeWeight

// MaxTotalEdgeWeight bounds the summed edge weight of a graph (2³¹−1), so
// every weight and every sum of them the engine forms is an exact int32.
const MaxTotalEdgeWeight = graph.MaxTotalEdgeWeight

// Repartition incrementally updates assignment a to cover graph g:
// vertices beyond a's coverage (or explicitly Unassigned) are treated as
// new. On success the partition sizes are balanced within the configured
// tolerance and a is updated in place.
//
// The context bounds the whole pipeline, including the simplex inner
// loops: when it is canceled or its deadline expires, Repartition
// returns an error matching [ErrCanceled] (and, via the wrapped
// context.Cause, context.Canceled or context.DeadlineExceeded). An
// aborted call never leaves a mid-move: a stays a valid assignment,
// though its sizes may still be unbalanced.
//
// This is the one-shot form — derived state is rebuilt on every call.
// Applications that repartition the same graph repeatedly should hold an
// [Engine].
func Repartition(ctx context.Context, g *Graph, a *Assignment, opts ...Option) (*Stats, error) {
	e, err := NewEngine(g, opts...)
	if err != nil {
		return nil, err
	}
	return e.Repartition(ctx, a)
}

// repartitionInBatches implements the paper's second fallback for severe
// incremental changes (§2.3): instead of balancing all new vertices at
// once, it reveals them in numBatches groups — ordered by graph distance
// from the previously assigned region, so each batch extends the mesh the
// way the application grew it — and runs a full Repartition cycle per
// batch on the subgraph revealed so far, each on a fresh engine built
// with opt. The last batch covers the whole graph, so the final
// assignment is exactly balanced on it. A call with nothing to batch —
// no new vertex, no assigned one, or one batch — runs on eng, the
// engine bound to the whole graph, warm or not.
//
// Stats from the per-batch runs are aggregated by Stats.AddBatch; Stages
// is the paper's total stage count across batches.
func repartitionInBatches(ctx context.Context, eng *engine.Engine, a *partition.Assignment, opt engine.Options, numBatches int) (*engine.Stats, error) {
	g := eng.Graph()
	// agg is returned on every path: the batches folded so far — the
	// failed one included — or, when none ran, a record whose Elapsed is
	// the checks' time.
	agg, start := new(engine.Stats), time.Now()
	fold := func(st *engine.Stats, first bool) {
		if first {
			agg = st.Clone()
		} else {
			agg.AddBatch(st)
		}
	}
	failed := func(err error) (*engine.Stats, error) {
		if agg.Elapsed == 0 {
			agg.Elapsed = time.Since(start)
		}
		return agg, err
	}
	if err := engine.CheckP(a); err != nil {
		return failed(err)
	}
	a.Grow(g.Order())
	for v := range graph.Vertex(g.Order()) {
		if err := engine.CheckID(a, v); err != nil {
			return failed(err)
		}
	}
	var olds, news []graph.Vertex
	for v := range graph.Vertex(g.Order()) {
		switch {
		case !g.Alive(v):
			a.Part[v] = partition.Unassigned
		case a.Part[v] >= 0:
			olds = append(olds, v)
		default:
			news = append(news, v)
		}
	}
	if numBatches > len(news) && len(news) > 0 {
		numBatches = len(news)
	}
	if len(olds) == 0 || len(news) == 0 || numBatches == 1 {
		return eng.Repartition(ctx, a)
	}

	// Order new vertices by distance from the old region; unreachable
	// (orphan) vertices sort last so the cluster fallback sees them in the
	// final batch, when the most context is available.
	_, dist := g.NearestLabeled(a.Part)
	slices.SortFunc(news, func(x, y graph.Vertex) int {
		// An unreachable vertex's distance, -1, is the largest as a uint32.
		return cmp.Or(cmp.Compare(uint32(dist[x]), uint32(dist[y])), cmp.Compare(x, y))
	})

	revealed := append([]graph.Vertex(nil), olds...)
	for b := 0; b < numBatches; b++ {
		if err := cancel.Check(ctx, "batched repartition"); err != nil {
			return failed(err)
		}
		lo := b * len(news) / numBatches
		hi := (b + 1) * len(news) / numBatches
		revealed = append(revealed, news[lo:hi]...)

		sub, _, newToOld := g.InducedSubgraph(revealed)
		subA := partition.New(sub.Order(), a.P)
		for sv, old := range newToOld {
			subA.Part[sv] = a.Part[old]
		}
		st, err := engine.New(sub, opt).Repartition(ctx, subA)
		fold(st, b == 0)
		if err != nil {
			return failed(fmt.Errorf("igp: batch %d/%d: %w", b+1, numBatches, err))
		}
		for sv, old := range newToOld {
			a.Part[old] = subA.Part[sv]
		}
	}
	return agg, nil
}

// Engine is a long-lived repartitioning session bound to one graph.
// Unlike the one-shot [Repartition] function — which rebuilds its derived
// state on every call — an Engine keeps a flat CSR snapshot of the graph
// (patched row-by-row from the graph's edit journal when it has been
// edited, not rebuilt), maintains the partition-boundary set, the
// per-partition sizes and the cutset statistics incrementally from that
// journal plus one assignment diff per call (inside a call it follows
// its own write log; [Stats.SyncDiffs]), seeds phase 1 from the touched
// set so an unchanged region is never traversed, and reuses all phase
// scratch memory — so a warm Repartition after a small edit costs work
// proportional to the changed region and performs near-zero heap
// allocation.
//
// Typical use mirrors an adaptive-mesh application's loop:
//
//	eng, _ := igp.NewEngine(g, igp.WithRefine())
//	for {
//		// ... the application edits g ...
//		stats, err := eng.Repartition(ctx, a)
//	}
//
// An Engine is not safe for concurrent use.
type Engine struct {
	eng *engine.Engine
	cfg *config
}

// NewEngine returns an engine bound to g, validating every option
// eagerly: unknown solver names, batches or worker counts < 1 and nil
// observers are constructor errors, never mid-run surprises. The engine
// runs every phase on the calling goroutine. The first Repartition call
// pays a full snapshot build; subsequent calls are incremental.
func NewEngine(g *Graph, opts ...Option) (*Engine, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: engine.New(g, cfg.Options), cfg: cfg}, nil
}

// Repartition incrementally updates assignment a to cover the engine's
// graph, exactly like the package-level [Repartition] but reusing the
// engine's snapshots and scratch arenas. The context is honored
// throughout (see Repartition); an abort leaves a valid assignment.
//
// The returned *Stats is an arena owned by the engine: it is
// overwritten by the next Repartition call. Use [Stats.Clone] to retain
// one across calls (a shallow copy is not enough — the slice-backed
// fields point into the arena too). A call that errors returns the Stats
// of the work it did — a batched call: of the batches it ran, the failed
// one included, or, when it failed before the first, a record holding
// only Elapsed — and nil only on a closed engine.
func (e *Engine) Repartition(ctx context.Context, a *Assignment) (*Stats, error) {
	// A closed engine must not reach repartitionInBatches, which would run
	// fresh per-batch engines.
	if e.eng.Closed() {
		return nil, ErrEngineClosed
	}
	if e.cfg.batches > 1 {
		// Batched reveal re-runs the pipeline over growing subgraphs, which
		// needs per-batch throwaway engines: a call with new vertices to
		// batch trades the engine's snapshot/arena reuse for bounded
		// per-batch movement, and its Elapsed/PhaseTimings sum the batches'
		// pipeline time (subgraph construction between batches is extra).
		// A call with nothing to batch runs on the session engine.
		return repartitionInBatches(ctx, e.eng, a, e.cfg.Options, e.cfg.batches)
	}
	return e.eng.Repartition(ctx, a)
}

// Graph returns the graph the engine is bound to (also after Close).
func (e *Engine) Graph() *Graph { return e.eng.Graph() }

// Close ends the engine session: every snapshot, scratch arena and
// sessionized LP solver (with its arenas) the engine owns is released,
// so a pool multiplexing many engines can evict an idle one and reclaim
// its memory deterministically. Close is idempotent and always returns
// nil; the graph is caller-owned and is not touched.
//
// Invalidation hazard: the *Stats returned by Repartition is an arena
// owned by the engine, and Close releases it — [Stats.Clone] anything
// that must outlive the session before closing. After Close,
// Repartition fails with an error matching [ErrEngineClosed].
func (e *Engine) Close() error { return e.eng.Close() }

// ParallelResult reports a simulated distributed run.
type ParallelResult struct {
	// SimTime is the simulated makespan on the CM-5-calibrated machine.
	SimTime time.Duration
	// Messages and Bytes count point-to-point traffic.
	Messages, Bytes int64
	// Stages is the number of balancing stages used.
	Stages int
}

// SimulateParallelRepartition runs the repartitioner SPMD on a simulated
// CM-5-like machine with the given number of ranks, updating a in place.
// Every rank runs the same pipeline as [Repartition] on a replica of a,
// owns the partitions q with q mod ranks == r, solves each LP with the
// paper's dense tableau and exchanges real messages wherever a distributed
// run communicates; the simulated clock charges each rank the work of its
// own partitions and its share of the column-distributed dense simplex,
// plus a LogP cost per message. So a ends up equal, vertex for vertex, to
// what Repartition with WithSolver("dense") and the same options leaves,
// at every rank count. The returned SimTime is the
// simulated parallel makespan — run with ranks=1 to obtain the simulated
// sequential time and divide for speedup.
//
// WithRefine, WithTolerance and WithObserver (fed rank 0's events) are
// honoured; WithParallelism, a no-op, is accepted. Options the simulator
// cannot honour are errors:
// WithSolver (its LP is always the dense tableau), WithMultilevel
// and WithBatches(k > 1).
//
// The context is honoured like Repartition's: a cancellation seen by any
// rank aborts every rank, the call returns an error matching
// [ErrCanceled], and a holds rank 0's replica, which is never left
// mid-move.
func SimulateParallelRepartition(ctx context.Context, g *Graph, a *Assignment, ranks int, opts ...Option) (*ParallelResult, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.Solver != nil:
		return nil, errors.New("igp: SimulateParallelRepartition: WithSolver is not simulated (the LP is always the dense tableau)")
	case cfg.Multilevel.Enabled:
		return nil, errors.New("igp: SimulateParallelRepartition: WithMultilevel is not simulated")
	case cfg.batches > 1:
		return nil, fmt.Errorf("igp: SimulateParallelRepartition: WithBatches(%d) is not simulated", cfg.batches)
	}
	w, err := comm.NewWorld(ranks, comm.CM5())
	if err != nil {
		return nil, err
	}
	res, err := parallel.Repartition(ctx, w, g, a, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &ParallelResult{
		SimTime:  res.SimTime,
		Messages: res.Messages,
		Bytes:    res.Bytes,
		Stages:   res.Stats.Stages,
	}, nil
}
