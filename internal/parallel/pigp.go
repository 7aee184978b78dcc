// Package parallel implements the distributed-memory version of the
// incremental partitioner — the paper's actual contribution claim ("all
// the steps used by our method are inherently parallel"). It runs SPMD
// over the comm substrate: every rank executes the product pipeline over
// a replica of the assignment, owns a subset of partitions (and of LP
// columns), is charged simulated compute only for work on what it owns,
// and sends the messages a real distributed implementation would.
package parallel

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// Result reports a parallel repartitioning run.
type Result struct {
	// SimTime is the simulated parallel makespan under the world's cost
	// model — the paper's Time-p.
	SimTime time.Duration
	// Messages and Bytes count all point-to-point traffic.
	Messages, Bytes int64
	// Stats is rank 0's engine report, detached from its arenas. Every rank
	// reports the same pipeline (only the wall-clock fields differ).
	Stats *engine.Stats
}

// Repartition runs the SPMD parallel IGP over world w. Every rank runs the
// product pipeline — engine.New(g, opt).Repartition — on its own replica
// of the assignment; rank r owns the partitions q with q mod ranks == r.
// The engine already calls out wherever a distributed run communicates,
// and each rank fills those two seams:
//
//   - the LP solver is SolveLP: every rank solves each balance and
//     refinement LP with lp.Dense and is charged what the
//     column-distributed dense simplex costs;
//   - the observer charges the flop model for the work of owned partitions
//     and sends the messages a distributed implementation would (see
//     rank.charge).
//
// opt.Solver is replaced, and opt.Observer, if set, receives rank 0's
// events. opt.Multilevel must be
// off, or Repartition returns an error: the V-cycle's events carry no
// charge. Since SolveLP is lp.Dense, a is updated in place with what
// engine.New(g, opt) with the dense solver leaves behind, at every rank
// count. On error a holds rank 0's replica, which the engine never leaves
// mid-move. The world's clocks are reset first, so Result.SimTime is this
// call's makespan.
func Repartition(ctx context.Context, w *comm.World, g *graph.Graph, a *partition.Assignment, opt engine.Options) (*Result, error) {
	if opt.Multilevel.Enabled {
		return nil, errors.New("parallel: Repartition: the multilevel V-cycle is not simulated")
	}
	w.Reset()
	a.Grow(g.Order())
	final := make([]*partition.Assignment, w.Size())
	var stats *engine.Stats

	err := w.Run(func(c *comm.Comm) error {
		r := &rank{c: c, g: g, a: a.Clone(), seen: slices.Clone(a.Part)}
		final[c.Rank()] = r.a
		o := opt
		o.Solver = solver{c}
		o.Observer = func(ev engine.Event) {
			if c.Rank() == 0 && opt.Observer != nil {
				opt.Observer(ev)
			}
			if r.err == nil {
				r.err = r.charge(ev)
			}
		}
		st, err := engine.New(g, o).Repartition(ctx, r.a)
		if r.err != nil {
			err = r.err
		}
		if err == nil {
			// The spill emits no event: ship what it moved, unless a
			// refinement event has already.
			err = r.migrate()
		}
		if err == nil && c.Rank() == 0 {
			stats = st.Clone()
		}
		return err
	})
	copy(a.Part, final[0].Part)
	if err != nil {
		return nil, err
	}
	for r, f := range final {
		if !slices.Equal(f.Part, a.Part) {
			return nil, fmt.Errorf("parallel: rank %d diverged from rank 0", r)
		}
	}
	return &Result{SimTime: w.MaxClock(), Messages: w.TotalMessages(), Bytes: w.TotalBytes(), Stats: stats}, nil
}

// solver is a rank's LP seam: every solve is SolveLP over the rank's
// communicator.
type solver struct{ c *comm.Comm }

func (s solver) Name() string { return "parallel" }

func (s solver) Solve(ctx context.Context, p *lp.Problem) (*lp.Solution, error) {
	return SolveLP(ctx, s.c, p)
}

// SolveLP solves prob with lp.Dense and charges the calling rank what the
// column-distributed dense simplex the paper parallelizes costs. All ranks
// must call with an identical problem; lp.Dense is deterministic, so all
// receive the same solution.
//
// The n columns of the dense form (lp.DenseSize) are dealt cyclically, so
// a rank owns the columns j with j mod ranks == rank. It is charged 2·owned·m
// for the two reduced-cost resets and, per pivot, owned for the entering
// scan, m for the ratio test and owned·m + m for the tableau update: the
// dense profile, every owned column and all m rows ("a dense version of
// simplex algorithm", O(v·c) per iteration). Each pivot selects the entering
// column with a global argmin and broadcasts it (m+1 floats) from its
// owner; lp.Dense does not report which column entered, so pivot k's
// broadcast is rooted at rank k mod ranks. A final argmin finds no
// improving column.
func SolveLP(ctx context.Context, c *comm.Comm, prob *lp.Problem) (*lp.Solution, error) {
	sol, err := lp.Dense{}.Solve(ctx, prob)
	if err != nil {
		return nil, err
	}
	n, m := lp.DenseSize(prob)
	me, ranks := c.Rank(), c.Size()
	owned := n / ranks
	if me < n%ranks {
		owned++
	}
	c.Advance(float64(2 * owned * m))
	for k := 0; k < sol.Iterations; k++ {
		c.Advance(float64(owned))
		if _, _, err := c.ArgminIndexed(0, k); err != nil {
			return nil, err
		}
		if _, err := c.Bcast(k%ranks, nil, 8*(m+1)); err != nil {
			return nil, err
		}
		c.Advance(float64(m + owned*m + m))
	}
	if _, _, err := c.ArgminIndexed(math.Inf(1), math.MaxInt32); err != nil {
		return nil, err
	}
	return sol, nil
}

// owner maps a partition to the rank that owns it.
func owner(q int32, ranks int) int { return int(q) % ranks }

// tagMove is the user tag of migration messages; they travel in one
// order on every rank, so the per-pair FIFO keeps them matched.
const tagMove = 1

// move is a vertex leaving partition from for partition to; from is
// Unassigned for a vertex phase 1 assigned.
type move struct {
	v        graph.Vertex
	from, to int32
}

// rank is one simulated processor: its replica of the assignment (written
// by its engine), the replica as of the last exchange, and the first
// communication error its observer met, returned after the engine call.
type rank struct {
	c    *comm.Comm
	g    *graph.Graph
	a    *partition.Assignment
	seen []int32
	err  error
}

// charge is the observer body: it advances the rank's clock by the work
// its partitions did since the last event and sends what a distributed
// run exchanges at that point. Work units are those of the flop model
// (comm.CostModel.FlopTime); "rim" is Σ (deg+1) over the owned boundary
// vertices, "all" the same over every owned vertex.
//
//   - assign end: 1 + Σ (deg+1) over the vertices newly assigned to owned
//     partitions; the (vertex, partition) claims are all-gathered.
//   - layer end (a stage's rim pass): 2·rim; the owned δ rows (P values
//     each) are all-gathered.
//   - balance end: 2·all·Deepened/P — the expected share of the Deepened
//     partitions the stage layered to full depth — then migration.
//   - refine round: rim (the candidate scan); the owned b(i,j) rows are
//     all-gathered, then migration.
//   - refine end: migration (a rollback moves vertices back).
//   - after the engine call: migration (the spill moves vertices
//     without an event).
//   - cut report (not a reused copy): rim, then an allreduce of the P
//     per-partition cut weights.
//
// Migration ships each moved vertex list from the source partition's
// owner to the destination's, charging both its length. The LP solves
// charge themselves inside SolveLP.
func (r *rank) charge(ev engine.Event) error {
	switch {
	case ev.Kind == engine.EventEnd && ev.Phase == engine.PhaseAssign:
		return r.claims()
	case ev.Kind == engine.EventEnd && ev.Phase == engine.PhaseLayer:
		_, rim, rows := r.walk()
		r.c.Advance(2 * rim)
		_, err := r.c.Allgather(rows, 8*r.a.P*len(rows))
		return err
	case ev.Kind == engine.EventEnd && ev.Phase == engine.PhaseBalance:
		all, _, _ := r.walk()
		r.c.Advance(2 * all * float64(ev.Deepened) / float64(r.a.P))
		return r.migrate()
	case ev.Kind == engine.EventRound:
		_, rim, rows := r.walk()
		r.c.Advance(rim)
		if _, err := r.c.Allgather(rows, 8*r.a.P*len(rows)); err != nil {
			return err
		}
		return r.migrate()
	case ev.Kind == engine.EventEnd && ev.Phase == engine.PhaseRefine:
		return r.migrate()
	case ev.Kind == engine.EventCut && !ev.Reused:
		_, rim, rows := r.walk()
		r.c.Advance(rim)
		cut := make([]float64, r.a.P)
		for k, row := range rows {
			for _, wt := range row {
				cut[r.c.Rank()+k*r.c.Size()] += wt
			}
		}
		_, err := r.c.AllreduceFloat(cut)
		return err
	}
	return nil
}

// walk visits the vertices of the owned partitions and returns their work
// (all), the work of the boundary ones among them (rim), and for the k-th
// owned partition, rank + k·ranks, the weight of its arcs into every
// partition (rows[k]) — a P-value row, the size of the δ and b(i,j) rows a
// distributed run exchanges.
func (r *rank) walk() (all, rim float64, rows [][]float64) {
	me, ranks := r.c.Rank(), r.c.Size()
	for q := me; q < r.a.P; q += ranks {
		rows = append(rows, make([]float64, r.a.P))
	}
	r.g.ForEachVertex(func(v graph.Vertex) {
		p := r.a.Part[v]
		if p < 0 || owner(p, ranks) != me {
			return
		}
		work := float64(r.g.Degree(v) + 1)
		all += work
		ws := r.g.EdgeWeights(v)
		boundary := false
		for i, u := range r.g.Neighbors(v) {
			if pu := r.a.Part[u]; pu >= 0 && pu != p {
				rows[int(p)/ranks][pu] += ws[i]
				boundary = true
			}
		}
		if boundary {
			rim += work
		}
	})
	return all, rim, rows
}

// diff lists the vertices whose partition changed since the last diff, in
// ascending id order, and advances seen.
func (r *rank) diff() []move {
	var moves []move
	for v, p := range r.a.Part {
		if q := r.seen[v]; q != p {
			r.seen[v] = p
			if p >= 0 {
				moves = append(moves, move{graph.Vertex(v), q, p})
			}
		}
	}
	return moves
}

// claims charges phase 1 and all-gathers the claims of owned partitions.
func (r *rank) claims() error {
	me, ranks := r.c.Rank(), r.c.Size()
	var mine []move
	work := 1.0
	for _, m := range r.diff() {
		if owner(m.to, ranks) == me {
			mine = append(mine, m)
			work += float64(r.g.Degree(m.v) + 1)
		}
	}
	r.c.Advance(work)
	_, err := r.c.Allgather(mine, 8*len(mine))
	return err
}

// migrate ships the vertices that changed partition since the last
// exchange, one list per (source, destination) pair, from the source
// partition's owner to the destination's, and checks each list received
// against the replica's own.
func (r *rank) migrate() error {
	moves := r.diff()
	slices.SortStableFunc(moves, func(x, y move) int {
		return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.to, y.to))
	})
	me, ranks := r.c.Rank(), r.c.Size()
	for lo := 0; lo < len(moves); {
		hi := lo + 1
		for hi < len(moves) && moves[hi].from == moves[lo].from && moves[hi].to == moves[lo].to {
			hi++
		}
		list := moves[lo:hi]
		src, dst := owner(list[0].from, ranks), owner(list[0].to, ranks)
		switch {
		case src == dst:
		case me == src:
			if err := r.c.Send(dst, tagMove, list, 4*len(list)); err != nil {
				return err
			}
		case me == dst:
			got, err := r.c.Recv(src, tagMove)
			if err != nil {
				return err
			}
			if !slices.Equal(got.([]move), list) {
				return fmt.Errorf("parallel: migration list %d→%d diverged", list[0].from, list[0].to)
			}
		}
		if me == src || me == dst {
			r.c.Advance(float64(len(list)))
		}
		lo = hi
	}
	return nil
}
