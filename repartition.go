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

// ErrNeedRepartition is returned when incremental balancing cannot
// succeed (the paper's advice: repartition from scratch, or add the new
// vertices in batches — see WithBatches).
var ErrNeedRepartition = engine.ErrNeedRepartition

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
	var st *Stats
	if cfg.batches > 1 {
		st, err = repartitionInBatches(ctx, g, a, cfg.engineOptions(), cfg.batches)
	} else {
		st, err = engine.New(g, cfg.engineOptions()).Repartition(ctx, a)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// repartitionInBatches implements the paper's second fallback for severe
// incremental changes (§2.3): instead of balancing all new vertices at
// once, it reveals them in numBatches groups — ordered by graph distance
// from the previously assigned region, so each batch extends the mesh the
// way the application grew it — and runs a full Repartition cycle per
// batch on the subgraph revealed so far. The last batch covers the whole
// graph, so the final assignment is exactly balanced on g.
//
// Stats from the per-batch runs are aggregated by Stats.AddBatch; Stages
// is the paper's total stage count across batches.
func repartitionInBatches(ctx context.Context, g *graph.Graph, a *partition.Assignment, opt engine.Options, numBatches int) (*engine.Stats, error) {
	if numBatches < 1 {
		return nil, fmt.Errorf("igp: batched repartition needs ≥ 1 batch, got %d", numBatches)
	}
	a.Grow(g.Order())
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
	if len(olds) == 0 {
		return nil, fmt.Errorf("igp: batched repartition: no previously assigned vertices")
	}
	if numBatches > len(news) && len(news) > 0 {
		numBatches = len(news)
	}
	if len(news) == 0 || numBatches == 1 {
		return engine.New(g, opt).Repartition(ctx, a)
	}

	// Order new vertices by distance from the old region; unreachable
	// (orphan) vertices sort last so the cluster fallback sees them in the
	// final batch, when the most context is available.
	_, dist := g.NearestLabeled(a.Part)
	slices.SortFunc(news, func(x, y graph.Vertex) int {
		// An unreachable vertex's distance, -1, is the largest as a uint32.
		return cmp.Or(cmp.Compare(uint32(dist[x]), uint32(dist[y])), cmp.Compare(x, y))
	})

	var agg *engine.Stats
	revealed := append([]graph.Vertex(nil), olds...)
	for b := 0; b < numBatches; b++ {
		if err := cancel.Check(ctx, "batched repartition"); err != nil {
			return agg, err
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
		if err != nil {
			return agg, fmt.Errorf("igp: batch %d/%d: %w", b+1, numBatches, err)
		}
		for sv, old := range newToOld {
			a.Part[old] = subA.Part[sv]
		}
		if agg == nil {
			agg = st.Clone()
		} else {
			agg.AddBatch(st)
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
// eagerly: unknown solver names, non-positive stage caps, batches < 1
// and nil observers are constructor errors, never mid-run surprises.
// The first Repartition call pays a full snapshot build; subsequent
// calls are incremental.
func NewEngine(g *Graph, opts ...Option) (*Engine, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: engine.New(g, cfg.engineOptions()), cfg: cfg}, nil
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
		st  *Stats
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
		st, err = repartitionInBatches(ctx, e.eng.Graph(), a, e.cfg.engineOptions(), e.cfg.batches)
	} else {
		st, err = e.eng.Repartition(ctx, a)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
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
// honoured.
// WithParallelism is accepted and changes nothing: a rank models one
// processor, so its engine runs one worker, and results are identical at
// every worker count. Options the simulator cannot honour are errors:
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
	case cfg.solver != nil:
		return nil, errors.New("igp: SimulateParallelRepartition: WithSolver is not simulated (the LP is always the dense tableau)")
	case cfg.multilevel:
		return nil, errors.New("igp: SimulateParallelRepartition: WithMultilevel is not simulated")
	case cfg.batches > 1:
		return nil, fmt.Errorf("igp: SimulateParallelRepartition: WithBatches(%d) is not simulated", cfg.batches)
	}
	w, err := comm.NewWorld(ranks, comm.CM5())
	if err != nil {
		return nil, err
	}
	res, err := parallel.Repartition(ctx, w, g, a, cfg.engineOptions())
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
