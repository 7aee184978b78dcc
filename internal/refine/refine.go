// Package refine implements the paper's Step 4: cut-reducing vertex
// movement under exact load preservation. Boundary vertices whose edge
// count toward a foreign partition j is at least their internal edge count
// are candidates b(i,j); the LP
//
//	maximize   Σ l(i,j)
//	subject to 0 ≤ l(i,j) ≤ b(i,j)
//	           outflow(j) − inflow(j) = 0      for every j
//
// moves as many of them as possible without disturbing partition sizes.
// The step is iterated; the candidate test switches from ≥ to > (the
// paper's "strict inequality" guard against vertices with zero net gain
// oscillating between partitions) as strictNext says, and Drive stops early
// where running on could change nothing (Stats.Stop says why it stopped).
//
// A round costs what it moves (the FM gain-update rule): Apply logs the
// vertices it moves with the partitions they left; from that log the
// engine re-reads only their rows and their neighbours' — one read each,
// yielding the cut term Drive's evaluator sums after every round and the
// class the next round's pools are patched from (RowScan,
// Scratch.GainsPatched; see gains.go), identical to a from-scratch scan's
// — and Drive undoes a regressing tail by rolling the log back.
package refine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// LPArena owns the reusable buffers of the refinement-LP formulation —
// the shared quotient-flow builder — and of the driver's move log.
// Buffers grow to the largest round seen and are then reused, so
// steady-state formulation through a warm engine allocates nothing. The
// Problem and pair slice returned by Formulate are owned by the arena and
// invalidated by its next call. The zero value is ready.
type LPArena struct {
	flow lp.QuotientFlow
	undo []move // Drive's move log (see Drive)
	wlo  int    // undo[wlo:whi] (a rollback only shortens undo) is what
	whi  int    // Drive wrote before its last cut report, since the one before
}

// AppendWritten appends to dst the vertices Drive wrote — a round, or the
// moves a rollback undid — since its previous cut report, for the
// Options.CutWeight evaluator to re-examine.
func (ar *LPArena) AppendWritten(dst []graph.Vertex) []graph.Vertex {
	for _, m := range ar.undo[ar.wlo:ar.whi] {
		dst = append(dst, m.v)
	}
	return dst
}

// Formulate builds the refinement LP — a maximal circulation under the
// pool sizes b(i,j), over pairs with b(i,j) > 0 — into the arena's reused
// buffers.
func (ar *LPArena) Formulate(c *Candidates) (*lp.Problem, [][2]int32) {
	return ar.flow.Formulate(lp.Maximize, c.B, nil, 0)
}

// Apply moves the best-gain prefix of each pair's pool per the LP flows,
// returning the number of vertices moved. The moves are logged in c (with
// the partition each vertex left) for Drive's rollback. A flow that is
// fractional, negative or larger than its pool, or pools that share a
// vertex, fail the whole round: on error nothing has moved.
func Apply(a *partition.Assignment, c *Candidates, pairs [][2]int32, x []float64) (int, error) {
	for v, amt := range x {
		r := math.Round(amt)
		if !(math.Abs(amt-r) <= 1e-6) { // NaN included
			return 0, fmt.Errorf("refine: non-integral flow %g for pair %v", amt, pairs[v])
		}
		if n := c.B[pairs[v][0]][pairs[v][1]]; r < 0 || r > float64(n) {
			return 0, fmt.Errorf("refine: flow %g outside pool %d for pair %v", r, n, pairs[v])
		}
	}
	c.log = c.log[:0]
	for v, amt := range x {
		from, to := pairs[v][0], pairs[v][1]
		for _, vert := range c.Pool(from, to)[:int(math.Round(amt))] {
			if a.Part[vert] != from {
				for _, m := range c.log {
					a.Part[m.v] = m.from
				}
				c.log = c.log[:0]
				return 0, fmt.Errorf("refine: vertex %d moved twice in one round", vert)
			}
			c.log = append(c.log, move{vert, from})
			a.Part[vert] = to
		}
	}
	return len(c.log), nil
}

// Options configures the iterative refinement driver.
type Options struct {
	// MaxRounds caps LP refinement rounds (0 = default 8).
	MaxRounds int
	// Solver solves every round's LP.
	Solver lp.Solver
	// OnRound, if non-nil, is invoked after each applied round with the
	// 1-based round number and the vertices moved — the observability hook
	// the engine turns into stage events.
	OnRound func(round, moved int)
	// Arena receives the per-round LP formulations and the driver's move
	// log (reused buffers, zero steady-state allocation).
	Arena *LPArena
	// CutWeight, if non-nil, replaces partition.Cut(g, a).TotalWeight as
	// the exact evaluator of the current assignment's cut weight (the
	// engine supplies its tracked cut, which is bit-identical and costs
	// what the round moved). The driver calls it on entry, after every
	// applied round, and once more on exit when any round was applied,
	// after the assignment it leaves behind is in place; Arena's
	// AppendWritten names what the driver wrote since the previous call.
	CutWeight func() float64
}

// Rounds returns MaxRounds with the default applied.
func (o Options) Rounds() int {
	if o.MaxRounds <= 0 {
		return 8
	}
	return o.MaxRounds
}

const looseRounds = 2 // the paper goes strict "after a few steps"

// strictNext is Drive's candidate-test schedule: rounds start loose, and
// the loose-th loose round, which left cut (best: the lowest cut reported
// before it), is the last one when strictNext is true. Strict rounds stay
// strict.
func strictNext(loose int, cut, best float64) bool { return loose >= looseRounds || cut >= best }

// Stats reports what the refinement driver did.
type Stats struct {
	Rounds int
	Moved  int
	// CutBefore and CutAfter are the cut weight on entry and of the
	// assignment left behind; RoundCuts is the cut weight after every
	// applied round and RoundMoved the vertices that round moved — all
	// exact evaluations.
	CutBefore  float64
	CutAfter   float64
	RoundCuts  []float64
	RoundMoved []int
	Iterations int // total simplex pivots
	// RoundPivots lists the pivots of every LP solved, in round order
	// (including a final round whose solution was not applied).
	RoundPivots []int
	// StrictFrom counts the loose rounds: RoundCuts[StrictFrom:] are strict.
	// Stop says why the loop ended: "cap", "no-candidates", "no-gain",
	// "cycle" (see Drive), "unsolved" (a pivot cap, or an error other than
	// cancellation, which Drive returns) or "canceled".
	StrictFrom int
	Stop       string
}

// Drive is the engine's iterated refinement loop: each round it calls gains for the candidate pools, solves
// the zero-net-flow LP and applies the moves, and at the end it leaves
// the best assignment seen behind.
//
// A round costs what it moves. Every applied move is appended to a log
// (vertex, partition it left); the cut is evaluated on entry and after
// every applied round (Options.CutWeight, told the writes by
// LPArena.AppendWritten), and a later round that regressed is undone by
// rolling the log back to the best round instead of copying assignments.
// buf is not used: it is returned as it came, for the one caller outside
// the repository's root module that still passes its arena
// (benchmarks/harness, until ROADMAP item 1(b) may edit it). g must not
// change while Drive runs.
//
// A strict round that puts back exactly what the strict round before it
// moved makes every later round alternate between two states (a round is a
// function of the state): the loop ends ("cycle") in the state the cap
// would leave — the previous one if an odd number of rounds remain.
//
// The context is polled before every round and inside the LP solve. An
// abort rolls back to the best assignment seen so far, so a canceled
// refinement still leaves a valid (and never-worse) partition behind.
func Drive(ctx context.Context, g *graph.Graph, a *partition.Assignment, opt Options, gains func(strict bool) (*Candidates, error), buf []int32) (*Stats, []int32, error) {
	cutWeight := opt.CutWeight
	if cutWeight == nil {
		cutWeight = func() float64 { return partition.Cut(g, a).TotalWeight }
	}
	// One allocation backs both per-round curves up to the default cap.
	curves := new(struct {
		cuts  [8]float64
		moved [8]int
	})
	st := &Stats{RoundCuts: curves.cuts[:0], RoundMoved: curves.moved[:0]}
	arena := opt.Arena
	undo := arena.undo[:0]
	report := func(lo, hi int) float64 { // the cut, after writing undo[lo:hi]
		arena.undo, arena.wlo, arena.whi = undo, lo, hi
		return cutWeight()
	}
	st.CutBefore = report(0, 0)
	bestCut, bestLen := st.CutBefore, 0 // undo[:bestLen] leads to the best assignment
	cur := st.CutBefore
	strict := false
	last := 0 // undo[last:] is the last round's log
	var abort error
	st.Stop = "cap"
	for round := 0; round < opt.Rounds(); round++ {
		if err := cancel.Check(ctx, "refinement"); err != nil {
			abort = err
			break
		}
		cands, err := gains(strict)
		if err != nil {
			abort = err
			break
		}
		prob, pairs := arena.Formulate(cands)
		if len(pairs) == 0 {
			st.Stop = "no-candidates"
			break
		}
		sol, err := opt.Solver.Solve(ctx, prob)
		if err != nil {
			abort = fmt.Errorf("refine: %w", err)
			break
		}
		st.Iterations += sol.Iterations
		st.RoundPivots = append(st.RoundPivots, sol.Iterations)
		if sol.Status != lp.Optimal || sol.Objective < 0.5 {
			st.Stop = "no-gain"
			if sol.Status != lp.Optimal {
				st.Stop = "unsolved"
			}
			break
		}
		moved, err := Apply(a, cands, pairs, sol.X)
		if err != nil {
			abort = err
			break
		}
		st.Rounds++
		st.Moved += moved
		if opt.OnRound != nil {
			opt.OnRound(st.Rounds, moved)
		}
		start := len(undo)
		undo = append(undo, cands.log...)
		cur = report(start, len(undo))
		st.RoundCuts = append(st.RoundCuts, cur)
		st.RoundMoved = append(st.RoundMoved, moved)
		if !strict {
			st.StrictFrom++
			strict = strictNext(st.StrictFrom, cur, bestCut)
		}
		if cur < bestCut {
			bestCut, bestLen = cur, len(undo)
		}
		if st.Rounds-1 > st.StrictFrom && start-last == moved &&
			!slices.ContainsFunc(undo[last:start], func(m move) bool { return a.Part[m.v] != m.from }) {
			st.Stop = "cycle"
			if (opt.Rounds()-st.Rounds)%2 == 1 {
				for i := len(undo) - 1; i >= start; i-- {
					a.Part[undo[i].v] = undo[i].from
				}
				undo, cur = undo[:start], st.RoundCuts[st.Rounds-2]
			}
			break
		}
		last = start
	}
	if errors.Is(abort, cancel.ErrCanceled) {
		st.Stop = "canceled"
	} else if abort != nil {
		st.Stop = "unsolved"
	}
	if cur > bestCut {
		for i := len(undo) - 1; i >= bestLen; i-- {
			a.Part[undo[i].v] = undo[i].from
		}
		undo = undo[:bestLen]
	}
	st.CutAfter = st.CutBefore
	if st.Rounds > 0 { // the rollbacks undid undo[len(undo):] up to the last report's end
		st.CutAfter = report(len(undo), arena.whi)
	}
	arena.undo = undo
	return st, buf, abort
}
