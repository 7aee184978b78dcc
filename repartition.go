package igp

import (
	"context"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
)

// ErrNeedRepartition is returned when incremental balancing cannot
// succeed (the paper's advice: repartition from scratch, or add the new
// vertices in batches — see WithBatches).
var ErrNeedRepartition = core.ErrNeedRepartition

// ErrEngineClosed is returned by an [Engine] whose session was ended by
// [Engine.Close]. A closed engine never becomes usable again; create a
// new one with [NewEngine].
var ErrEngineClosed = engine.ErrClosed

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
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := runCore(ctx, g, a, cfg)
	if err != nil {
		return nil, err
	}
	out := &Stats{}
	convertStatsInto(out, st)
	return out, nil
}

// runCore dispatches to the single-pass or batched pipeline.
func runCore(ctx context.Context, g *Graph, a *Assignment, cfg *config) (*core.Stats, error) {
	if cfg.batches > 1 {
		return core.RepartitionInBatches(ctx, g, a, cfg.coreOptions(), cfg.batches)
	}
	return core.Repartition(ctx, g, a, cfg.coreOptions())
}

// Engine is a long-lived repartitioning session bound to one graph.
// Unlike the one-shot [Repartition] function — which rebuilds its derived
// state on every call — an Engine keeps a flat CSR snapshot of the graph
// (patched row-by-row from the graph's edit journal when it has been
// edited, not rebuilt), maintains the partition-boundary set, the
// per-partition sizes and the cutset statistics incrementally from that
// journal plus an assignment diff, seeds phase 1 from the touched set so
// an unchanged region is never traversed, and reuses all phase scratch
// memory — so a warm Repartition after a small edit costs work
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
	eng   *engine.Engine
	cfg   *config
	stats Stats // reused result arena; see Repartition
}

// NewEngine returns an engine bound to g, validating every option
// eagerly: unknown solver names, non-positive stage caps, batches < 1
// and nil observers are constructor errors, never mid-run surprises.
// The first Repartition call pays a full snapshot build; subsequent
// calls are incremental.
func NewEngine(g *Graph, opts ...Option) (*Engine, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: engine.New(g, cfg.coreOptions()), cfg: cfg}, nil
}

// Repartition incrementally updates assignment a to cover the engine's
// graph, exactly like the package-level [Repartition] but reusing the
// engine's snapshots and scratch arenas. The context is honored
// throughout (see Repartition); an abort leaves a valid assignment.
//
// The returned *Stats is an arena owned by the engine: it is
// overwritten by the next Repartition call. Use [Stats.Clone] to retain
// one across calls (a shallow copy is not enough — the slice-backed
// fields point into the arena too).
func (e *Engine) Repartition(ctx context.Context, a *Assignment) (*Stats, error) {
	var (
		st  *core.Stats
		err error
	)
	if e.eng.Closed() {
		return nil, ErrEngineClosed
	}
	if e.cfg.batches > 1 {
		// Batched reveal re-runs the pipeline over growing subgraphs, which
		// needs per-batch throwaway engines: a WithBatches(k>1) session
		// trades the engine's steady-state snapshot/arena reuse for bounded
		// per-batch movement, and its Elapsed/PhaseTimings sum the batches'
		// pipeline time (subgraph construction between batches is extra).
		// The session engine is reused again on the next single-pass call.
		st, err = core.RepartitionInBatches(ctx, e.eng.Graph(), a, e.cfg.coreOptions(), e.cfg.batches)
	} else {
		st, err = e.eng.Repartition(ctx, a)
	}
	if err != nil {
		return nil, err
	}
	convertStatsInto(&e.stats, st)
	return &e.stats, nil
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

// SimulateParallelRepartition runs the SPMD message-passing implementation
// of the repartitioner on a simulated CM-5-like machine with the given
// number of ranks, updating a in place (the parallel and sequential
// results are equally balanced; tie-breaking may differ). The context is
// polled SPMD-consistently by every rank, including inside the
// column-distributed simplex. The returned SimTime is the simulated
// parallel makespan — run with ranks=1 to obtain the simulated sequential
// time and divide for speedup.
func SimulateParallelRepartition(ctx context.Context, g *Graph, a *Assignment, ranks int, opts ...Option) (*ParallelResult, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	w, err := comm.NewWorld(ranks, comm.CM5())
	if err != nil {
		return nil, err
	}
	res, err := parallel.Repartition(ctx, w, g, a, cfg.parallelOptions())
	if err != nil {
		return nil, err
	}
	return &ParallelResult{
		SimTime:  res.SimTime,
		Messages: res.Messages,
		Bytes:    res.Bytes,
		Stages:   res.Stages,
	}, nil
}
