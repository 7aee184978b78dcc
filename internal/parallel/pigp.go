package parallel

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cancel"

	"repro/internal/balance"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/refine"
)

// Options configures the parallel repartitioner.
type Options struct {
	// EpsilonMax bounds the balance relaxation factor (0 = 8).
	EpsilonMax float64
	// MaxStages caps balancing stages (0 = 16).
	MaxStages int
	// Refine enables phase 4 (IGPR).
	Refine bool
	// RefineRounds caps refinement rounds (0 = 8).
	RefineRounds int
}

func (o Options) epsMax() float64 {
	if o.EpsilonMax <= 0 {
		return 8
	}
	return o.EpsilonMax
}

func (o Options) maxStages() int {
	if o.MaxStages <= 0 {
		return 16
	}
	return o.MaxStages
}

func (o Options) refineRounds() int {
	if o.RefineRounds <= 0 {
		return 8
	}
	return o.RefineRounds
}

// Result reports a parallel repartitioning run.
type Result struct {
	// SimTime is the simulated parallel makespan under the world's cost
	// model — the paper's Time-p.
	SimTime time.Duration
	// Messages and Bytes count all point-to-point traffic.
	Messages, Bytes int64
	// Stages is the number of balancing stages used (the paper's IGP(k)).
	Stages int
	// RefineRounds is the number of refinement LP rounds performed.
	RefineRounds int
	// BalanceMoved counts vertices moved by phase 3.
	BalanceMoved int
	// Per-phase simulated clock consumed on rank 0 (diagnostics).
	AssignSim, LayerSim, BalanceSim, RefineSim time.Duration
}

// Repartition runs the SPMD parallel IGP over world w. Every rank
// executes the same phases on replicated metadata; rank r owns partitions
// q with q mod ranks == r, is charged simulated compute for its own
// partitions only, and real messages carry frontier claims, δ rows,
// simplex pivot columns and migrated vertices. The assignment a is
// updated in place with the (identical) result; the world's clocks are
// reset first so Result.SimTime is this call's makespan.
func Repartition(ctx context.Context, w *comm.World, g *graph.Graph, a *partition.Assignment, opt Options) (*Result, error) {
	w.Reset()
	a.Grow(g.Order())
	res := &Result{}
	final := make([]*partition.Assignment, w.Size())
	stats := make([]Result, w.Size())

	err := w.Run(func(c *comm.Comm) error {
		mine := a.Clone()
		st, err := repartitionRank(ctx, c, g, mine, opt)
		if err != nil {
			return err
		}
		final[c.Rank()] = mine
		stats[c.Rank()] = *st
		// SPMD consistency check: all ranks must agree exactly.
		var sum int64
		for v, p := range mine.Part {
			sum += int64(v+1) * int64(p+2)
		}
		mx, err := c.AllreduceInt([]int64{sum}, comm.OpMax)
		if err != nil {
			return err
		}
		mn, err := c.AllreduceInt([]int64{sum}, comm.OpMin)
		if err != nil {
			return err
		}
		if mx[0] != mn[0] {
			return fmt.Errorf("parallel: ranks diverged (checksums %d..%d)", mn[0], mx[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	copy(a.Part, final[0].Part)
	*res = stats[0]
	res.SimTime = w.MaxClock()
	res.Messages = w.TotalMessages()
	res.Bytes = w.TotalBytes()
	return res, nil
}

// owner maps a partition to the rank that owns it.
func owner(q int32, ranks int) int { return int(q) % ranks }

// repartitionRank is the per-rank SPMD body. Each rank owns a private
// engine: replicated metadata, but snapshots, boundary sets and scratch
// arenas are reused across the stages and refinement rounds of the run.
// A rank models one processor of the paper's machine, so its engine runs
// one worker: the default (GOMAXPROCS) would fork ranks × cores
// goroutines inside every layering and gains region and oversubscribe
// the host, while the simulated clock — flop-modelled through
// comm.Advance — reads the same either way.
func repartitionRank(ctx context.Context, c *comm.Comm, g *graph.Graph, a *partition.Assignment, opt Options) (*Result, error) {
	res := &Result{}
	eng := engine.New(g, engine.Options{Parallelism: 1})
	t0 := c.Clock()
	if err := passign(c, g, a); err != nil {
		return nil, err
	}
	res.AssignSim = c.Clock() - t0

	targets := partition.Targets(g.NumVertices(), a.P)
	for stage := 0; stage < opt.maxStages(); stage++ {
		if err := cancel.Check(ctx, "parallel balance stage"); err != nil {
			return nil, err
		}
		sizes := a.Sizes(g)
		if maxAbsDev(sizes, targets) == 0 {
			break
		}
		tL := c.Clock()
		lay, err := player(ctx, c, eng, g, a)
		if err != nil {
			return nil, err
		}
		res.LayerSim += c.Clock() - tL
		tB := c.Clock()
		moved, ok, err := pbalance(ctx, c, g, a, lay, targets, opt.epsMax())
		if err != nil {
			return nil, err
		}
		res.BalanceSim += c.Clock() - tB
		if !ok {
			return nil, fmt.Errorf("parallel: %w", ErrNeedRepartition)
		}
		res.Stages++
		res.BalanceMoved += moved
		if moved == 0 {
			break
		}
	}
	if maxAbsDev(a.Sizes(g), targets) > 0 {
		return nil, fmt.Errorf("parallel: %w", ErrNeedRepartition)
	}

	if opt.Refine {
		tR := c.Clock()
		rounds, err := prefine(ctx, c, eng, g, a, opt)
		if err != nil {
			return nil, err
		}
		res.RefineSim = c.Clock() - tR
		res.RefineRounds = rounds
	}
	return res, nil
}

// ErrNeedRepartition mirrors core.ErrNeedRepartition for the parallel
// driver (kept separate to avoid an import cycle with core).
var ErrNeedRepartition = fmt.Errorf("incremental balance infeasible; repartition from scratch")

// passign is the parallel phase 1: a level-synchronous multi-source BFS.
// Each round, a rank expands the frontier vertices of partitions it owns
// and proposes claims on unassigned neighbors; claims are exchanged and
// applied identically everywhere (smallest partition id wins conflicts).
func passign(c *comm.Comm, g *graph.Graph, a *partition.Assignment) error {
	a.Grow(g.Order())
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			a.Part[v] = partition.Unassigned
		}
	}
	ranks := c.Size()
	frontier := make([]graph.Vertex, 0)
	for v := 0; v < g.Order(); v++ {
		if g.Alive(graph.Vertex(v)) && a.Part[v] >= 0 {
			frontier = append(frontier, graph.Vertex(v))
		}
	}
	if len(frontier) == 0 {
		return fmt.Errorf("parallel: assign: no previously assigned vertices")
	}
	for {
		// Propose claims from owned frontier vertices.
		type claim struct {
			V    graph.Vertex
			Part int32
		}
		var mine []claim
		work := 0
		for _, v := range frontier {
			p := a.Part[v]
			if owner(p, ranks) != c.Rank() {
				continue
			}
			work += g.Degree(v)
			for _, u := range g.Neighbors(v) {
				if a.Part[u] < 0 {
					mine = append(mine, claim{u, p})
				}
			}
		}
		c.Advance(float64(work + 1))
		// Exchange claims; every rank sees all claims.
		all, err := c.Allgather(mine, 8*len(mine))
		if err != nil {
			return err
		}
		next := frontier[:0]
		claimed := make(map[graph.Vertex]int32)
		total := 0
		for _, payload := range all {
			cl := payload.([]claim)
			total += len(cl)
			for _, cm := range cl {
				if cur, ok := claimed[cm.V]; !ok || cm.Part < cur {
					claimed[cm.V] = cm.Part
				}
			}
		}
		if total == 0 {
			break
		}
		c.Advance(float64(total))
		for v, p := range claimed {
			if a.Part[v] < 0 {
				a.Part[v] = p
				next = append(next, v)
			}
		}
		frontier = next
	}
	// Orphan clusters (new vertices disconnected from every old vertex):
	// deterministic on replicated state; charged to rank 0 only.
	var orphans []graph.Vertex
	for v := 0; v < g.Order(); v++ {
		if g.Alive(graph.Vertex(v)) && a.Part[v] < 0 {
			orphans = append(orphans, graph.Vertex(v))
		}
	}
	if len(orphans) > 0 {
		sub, _, newToOld := g.InducedSubgraph(orphans)
		comp, nc := sub.Components()
		sizes := a.Sizes(g)
		clusters := make([][]graph.Vertex, nc)
		for sv, cid := range comp {
			if cid >= 0 {
				clusters[cid] = append(clusters[cid], newToOld[sv])
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
			}
			sizes[best] += len(cluster)
		}
		if c.Rank() == 0 {
			c.Advance(float64(len(orphans) + a.P))
		}
	}
	return nil
}

// player is the parallel phase 2: every rank layers the graph (cheap on
// replicated data, boundary-seeded through its engine) but is charged
// only for the partitions it owns, then the δ rows of owned partitions
// are all-gathered — exactly the data a distributed layering would
// exchange.
func player(ctx context.Context, c *comm.Comm, eng *engine.Engine, g *graph.Graph, a *partition.Assignment) (*layering.Result, error) {
	lay, err := eng.Layer(ctx, a)
	if err != nil {
		return nil, err
	}
	ranks := c.Size()
	work := 0
	g.ForEachVertex(func(v graph.Vertex) {
		if owner(a.Part[v], ranks) == c.Rank() {
			work += g.Degree(v) + 1
		}
	})
	c.Advance(float64(2 * work))
	// Exchange owned δ rows.
	var rows [][]int
	for q := 0; q < a.P; q++ {
		if owner(int32(q), ranks) == c.Rank() {
			rows = append(rows, lay.Delta[q])
		}
	}
	if _, err := c.Allgather(rows, 8*a.P*len(rows)); err != nil {
		return nil, err
	}
	return lay, nil
}

// pbalance is the parallel phase 3: the balance LP is formulated
// identically everywhere from the replicated δ and solved with the
// column-distributed parallel simplex; vertex migration is realized with
// real messages from each source partition's owner to the destination's.
func pbalance(ctx context.Context, c *comm.Comm, g *graph.Graph, a *partition.Assignment, lay *layering.Result, targets []int, epsMax float64) (moved int, ok bool, err error) {
	sizes := a.Sizes(g)
	for eps := 1.0; eps <= epsMax; eps++ {
		m, err := balance.Formulate(lay.Delta, sizes, targets, eps)
		if err != nil {
			return 0, false, err
		}
		sol, err := SolveLP(ctx, c, m.Prob)
		if err != nil {
			return 0, false, err
		}
		if sol.Status != lp.Optimal {
			continue
		}
		flows, err := m.Flows(sol)
		if err != nil {
			return 0, false, err
		}
		if err := migrate(c, a, lay, flows); err != nil {
			return 0, false, err
		}
		total := 0
		for _, f := range flows {
			total += f.Amount
		}
		return total, true, nil
	}
	return 0, false, nil
}

// migrate applies flows to the replicated assignment and sends the moved
// vertex lists from source-partition owners to destination owners,
// cross-checking that both computed identical pools (an SPMD divergence
// trap).
func migrate(c *comm.Comm, a *partition.Assignment, lay *layering.Result, flows []balance.Flow) error {
	ranks := c.Size()
	// Real data motion: source owner ships the vertex ids.
	for fi, f := range flows {
		src := owner(f.From, ranks)
		dst := owner(f.To, ranks)
		pool := lay.Pool(f.From, f.To)
		if f.Amount > len(pool) {
			return fmt.Errorf("parallel: flow %d→%d overruns pool", f.From, f.To)
		}
		if src != dst {
			if c.Rank() == src {
				// Copy out of the engine-owned pool: the send is
				// asynchronous and the arena is reused by the next
				// layering, exactly like a real NIC copying a buffer.
				msg := append([]graph.Vertex(nil), pool[:f.Amount]...)
				if err := c.Send(dst, 1000+fi, msg, 4*f.Amount); err != nil {
					return err
				}
			}
			if c.Rank() == dst {
				got, err := c.Recv(src, 1000+fi)
				if err != nil {
					return err
				}
				list := got.([]graph.Vertex)
				for k, v := range list {
					if v != pool[k] {
						return fmt.Errorf("parallel: migration list diverged for flow %d→%d", f.From, f.To)
					}
				}
			}
		}
		if c.Rank() == src || c.Rank() == dst {
			c.Advance(float64(f.Amount))
		}
	}
	// All ranks apply identically to stay replicated.
	if _, err := balance.Apply(a, lay, flows); err != nil {
		return err
	}
	return nil
}

// prefine is the parallel phase 4: gains are computed per owned
// partition, candidate counts b(i,j) all-gathered, the refinement LP
// solved in parallel, and moves migrated like pbalance, switching to the
// strict test where refine.Strict says. Returns the rounds performed.
func prefine(ctx context.Context, c *comm.Comm, eng *engine.Engine, g *graph.Graph, a *partition.Assignment, opt Options) (int, error) {
	ranks := c.Size()
	best := a.Clone()
	bestCut := partition.Cut(g, a).TotalWeight
	strict, loose := false, 0
	rounds := 0
	for round := 0; round < opt.refineRounds(); round++ {
		if err := cancel.Check(ctx, "parallel refinement"); err != nil {
			return rounds, err
		}
		cands, err := eng.Gains(a, strict)
		if err != nil {
			return rounds, err
		}
		work := 0
		g.ForEachVertex(func(v graph.Vertex) {
			if owner(a.Part[v], ranks) == c.Rank() {
				work += g.Degree(v)
			}
		})
		c.Advance(float64(work))
		var rows [][]int
		for q := 0; q < a.P; q++ {
			if owner(int32(q), ranks) == c.Rank() {
				rows = append(rows, cands.B[q])
			}
		}
		if _, err := c.Allgather(rows, 8*a.P*len(rows)); err != nil {
			return rounds, err
		}

		prob, pairs := refine.Formulate(cands)
		if len(pairs) == 0 {
			break
		}
		sol, err := SolveLP(ctx, c, prob)
		if err != nil {
			return rounds, err
		}
		if sol.Status != lp.Optimal || sol.Objective < 0.5 {
			break
		}
		// Migrate: per-pair messages, then identical local application.
		for vi, amt := range sol.X {
			k := int(amt + 0.5)
			if k == 0 {
				continue
			}
			src := owner(pairs[vi][0], ranks)
			dst := owner(pairs[vi][1], ranks)
			if src != dst {
				pool := cands.Pool(pairs[vi][0], pairs[vi][1])
				if c.Rank() == src {
					// Copy out of the engine-owned pool (see migrate).
					msg := append([]graph.Vertex(nil), pool[:k]...)
					if err := c.Send(dst, 2000+vi, msg, 4*k); err != nil {
						return rounds, err
					}
				}
				if c.Rank() == dst {
					if _, err := c.Recv(src, 2000+vi); err != nil {
						return rounds, err
					}
				}
			}
			if c.Rank() == src || c.Rank() == dst {
				c.Advance(float64(k))
			}
		}
		moved, err := refine.Apply(a, cands, pairs, sol.X)
		if err != nil {
			return rounds, err
		}
		rounds++
		cut := partition.Cut(g, a).TotalWeight
		if !strict {
			loose++
			strict = refine.Strict(loose, cut, bestCut)
		}
		if cut < bestCut {
			bestCut = cut
			best = a.Clone()
		}
		if moved == 0 {
			break
		}
	}
	if partition.Cut(g, a).TotalWeight > bestCut {
		copy(a.Part, best.Part)
	}
	return rounds, nil
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
