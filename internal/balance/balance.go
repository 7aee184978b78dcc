// Package balance implements the paper's Step 3: the load-balancing linear
// program. Given the layering's δ(i,j) movability bounds and the current
// partition sizes, it formulates
//
//	minimize   Σ l(i,j)
//	subject to 0 ≤ l(i,j) ≤ δ(i,j)
//	           outflow(j) − inflow(j) = surplus(j)      for every j
//
// solves it with a pluggable simplex, and realizes the integral flows by
// moving the boundary-closest vertices from each pool. When the full
// correction is infeasible the right-hand side is divided by a relaxation
// factor ε > 1 (the paper's multi-stage mechanism, §2.3).
package balance

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/partition"
)

// Flow is a planned movement of Amount vertices from partition From to To.
type Flow struct {
	From, To int32
	Amount   int
}

// Model is a formulated balance LP plus the variable ↔ pair mapping.
type Model struct {
	Prob  *lp.Problem
	Pairs [][2]int32 // Pairs[v] = (i,j) for LP variable v
	// RHS is the per-partition net outflow requirement actually used
	// (after ε division and zero-sum repair).
	RHS []int
}

// relaxedRHSInto divides each surplus (sizes[j] − targets[j]) by eps,
// truncating toward zero, then repairs the result to sum to zero (an LP
// over flow-conservation equalities is trivially infeasible otherwise).
// The result is written into dst, which is grown as needed and reused.
func relaxedRHSInto(dst []int, sizes, targets []int, eps float64) []int {
	if cap(dst) < len(sizes) {
		dst = make([]int, len(sizes))
	}
	dst = dst[:len(sizes)]
	if eps < 1 {
		eps = 1
	}
	sum := 0
	for j := range sizes {
		dst[j] = int(math.Trunc(float64(sizes[j]-targets[j]) / eps))
		sum += dst[j]
	}
	for sum != 0 {
		// Move the entry whose rounded value drifted furthest from s/eps in
		// the direction that shrinks the sum.
		best, bestDrift := -1, math.Inf(-1)
		for j := range sizes {
			exact := float64(sizes[j]-targets[j]) / eps
			var drift float64
			if sum > 0 {
				drift = float64(dst[j]) - exact // positive drift: safe to decrement
			} else {
				drift = exact - float64(dst[j])
			}
			if drift > bestDrift {
				bestDrift, best = drift, j
			}
		}
		if sum > 0 {
			dst[best]--
			sum--
		} else {
			dst[best]++
			sum++
		}
	}
	return dst
}

// relaxedRHS is the allocating form of relaxedRHSInto over a
// precomputed surplus vector.
func relaxedRHS(surplus []int, eps float64) []int {
	return relaxedRHSInto(nil, surplus, make([]int, len(surplus)), eps)
}

// Arena owns the reusable buffers of the balance-LP formulation: the
// Problem's objective/bound/constraint storage, the pair mapping and
// the RHS vector. Buffers grow to the largest formulation seen and are
// then reused, so steady-state formulation through a warm engine
// allocates nothing — mirroring the engine's CSR and scratch reuse.
// The Model returned by FormulateTol is owned by the Arena and
// invalidated by its next call. The zero value is ready to use.
type Arena struct {
	model Model
	prob  lp.Problem
	pairs [][2]int32
	rhs   []int
	terms []lp.Term
	off   []int // partition j's row is terms[off[j]:off[j+1]]
	cons  []lp.Constraint
}

// FormulateTol is the arena-backed form of the package-level
// [FormulateTol]: identical formulation (it is what the public wrapper
// calls), but built into the arena's reused buffers and without
// diagnostic variable names.
func (ar *Arena) FormulateTol(delta [][]int, sizes, targets []int, eps float64, slack int) (*Model, error) {
	p := len(delta)
	if len(sizes) != p || len(targets) != p {
		return nil, fmt.Errorf("balance: dimension mismatch: δ is %d×, sizes %d, targets %d", p, len(sizes), len(targets))
	}
	if slack < 0 {
		return nil, fmt.Errorf("balance: negative slack %d", slack)
	}
	ar.rhs = relaxedRHSInto(ar.rhs, sizes, targets, eps)
	rhs := ar.rhs

	ar.pairs = ar.pairs[:0]
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j && delta[i][j] > 0 {
				ar.pairs = append(ar.pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	pairs := ar.pairs
	n := len(pairs)
	prob := &ar.prob
	prob.Sense = lp.Minimize
	prob.Names = nil
	prob.Obj = lp.GrowFloats(prob.Obj, n)
	prob.Upper = lp.GrowFloats(prob.Upper, n)
	for v, pr := range pairs {
		prob.Obj[v] = 1
		prob.Upper[v] = float64(delta[pr[0]][pr[1]])
	}

	ar.terms, ar.off = fillRows(ar.terms, ar.off, pairs, p)
	ar.cons = ar.cons[:0]
	for j := 0; j < p; j++ {
		terms := ar.terms[ar.off[j]:ar.off[j+1]]
		if len(terms) == 0 {
			if rhs[j] == 0 || abs(rhs[j]) <= slack {
				continue
			}
			// No movable vertex touches partition j but it must change
			// size: encode the contradiction (an empty row with nonzero
			// RHS) so the solver reports infeasibility (the driver will
			// then relax or re-stage).
		}
		if slack == 0 {
			ar.cons = append(ar.cons, lp.Constraint{Terms: terms, Rel: lp.EQ, RHS: float64(rhs[j])})
		} else {
			ar.cons = append(ar.cons,
				lp.Constraint{Terms: terms, Rel: lp.GE, RHS: float64(rhs[j] - slack)},
				lp.Constraint{Terms: terms, Rel: lp.LE, RHS: float64(rhs[j] + slack)})
		}
	}
	prob.Cons = ar.cons
	ar.model = Model{Prob: prob, Pairs: pairs, RHS: rhs}
	return &ar.model, nil
}

// fillRows writes the flow-conservation rows of the pair variables into
// terms — +1 on the row of a pair's source partition, −1 on its target's —
// and returns the buffer with the row offsets: partition j's row is
// terms[off[j]:off[j+1]]. Two counting passes over the pairs, O(pairs + p):
// the first sizes every row, the second writes the terms in variable
// order, so each row lists its variables ascending.
func fillRows(terms []lp.Term, off []int, pairs [][2]int32, p int) ([]lp.Term, []int) {
	if cap(terms) < 2*len(pairs) {
		terms = make([]lp.Term, 2*len(pairs))
	}
	terms = terms[:2*len(pairs)]
	if cap(off) < p+2 {
		off = make([]int, p+2)
	}
	off = off[:p+2]
	for j := range off {
		off[j] = 0
	}
	// off[j+2] counts row j, the running sum turns off[j+1] into its start,
	// and filling advances off[j+1] to its end — the start of row j+1.
	for _, pr := range pairs {
		off[pr[0]+2]++
		off[pr[1]+2]++
	}
	for j := 2; j < len(off); j++ {
		off[j] += off[j-1]
	}
	for v, pr := range pairs {
		terms[off[pr[0]+1]] = lp.Term{Var: v, Coef: 1}
		off[pr[0]+1]++
		terms[off[pr[1]+1]] = lp.Term{Var: v, Coef: -1}
		off[pr[1]+1]++
	}
	return terms, off
}

// Formulate builds the balance LP for the given layering δ, partition
// sizes and targets, with relaxation ε ≥ 1 (1 = full single-stage
// correction) and exact per-partition equality (the paper's constraint 12).
func Formulate(delta [][]int, sizes, targets []int, eps float64) (*Model, error) {
	return FormulateTol(delta, sizes, targets, eps, 0)
}

// FormulateTol generalizes Formulate with a balance tolerance: each
// partition's net outflow may deviate from its surplus by up to slack
// vertices, turning the equality into a pair of inequalities. slack = 0
// reproduces the paper exactly; slack > 0 (a ParMETIS-style imbalance
// allowance) trades residual imbalance for less vertex movement.
//
// This one-shot form allocates a fresh formulation with diagnostic
// variable names; the engine formulates through a reused [Arena]
// instead.
func FormulateTol(delta [][]int, sizes, targets []int, eps float64, slack int) (*Model, error) {
	var ar Arena
	m, err := ar.FormulateTol(delta, sizes, targets, eps, slack)
	if err != nil {
		return nil, err
	}
	m.Prob.Names = make([]string, len(m.Pairs))
	for v, pr := range m.Pairs {
		m.Prob.Names[v] = fmt.Sprintf("l(%d,%d)", pr[0], pr[1])
	}
	return m, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Flows converts an optimal LP solution into integral flows, rejecting
// non-integral values (which the totally unimodular formulation rules out
// up to numerical noise).
func (m *Model) Flows(sol *lp.Solution) ([]Flow, error) {
	return m.FlowsInto(make([]Flow, 0, len(m.Pairs)), sol)
}

// FlowsInto is Flows appending into a reusable buffer (dst[:0] is used;
// its capacity is kept), so a steady-state caller converts solutions
// without allocating.
func (m *Model) FlowsInto(dst []Flow, sol *lp.Solution) ([]Flow, error) {
	flows := dst[:0]
	for v, x := range sol.X {
		r := math.Round(x)
		if math.Abs(x-r) > 1e-6 {
			return nil, fmt.Errorf("balance: non-integral flow l(%d,%d) = %g", m.Pairs[v][0], m.Pairs[v][1], x)
		}
		if r > 0 {
			flows = append(flows, Flow{From: m.Pairs[v][0], To: m.Pairs[v][1], Amount: int(r)})
		}
	}
	return flows, nil
}

// Solve runs the solver and converts the LP solution to integral flows.
// Status is passed through: callers must check it before using the flows.
// A done context aborts the solve with an error matching
// cancel.ErrCanceled; no flows are produced.
func Solve(ctx context.Context, m *Model, solver lp.Solver) ([]Flow, *lp.Solution, error) {
	return SolveInto(ctx, m, solver, nil)
}

// SolveInto is Solve converting flows into a reusable buffer
// (see FlowsInto). The returned flows alias buf's backing array.
func SolveInto(ctx context.Context, m *Model, solver lp.Solver, buf []Flow) ([]Flow, *lp.Solution, error) {
	sol, err := solver.Solve(ctx, m.Prob)
	if err != nil {
		return nil, nil, fmt.Errorf("balance: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, sol, nil
	}
	flows, err := m.FlowsInto(buf, sol)
	if err != nil {
		return nil, sol, err
	}
	return flows, sol, nil
}

// Apply moves vertices to realize the flows, consuming each (i,j) pool
// boundary-first, and returns the number of vertices moved. The
// assignment is modified in place.
//
// Every flow's pool is resolved before the first vertex moves: a pool is
// ordered when first asked for, by attachments counted under the
// assignment as it is then, and one flow's moves change the attachment
// counts of the next flow's candidates. A flow larger than its pool is
// therefore rejected with nothing moved.
func Apply(a *partition.Assignment, lay *layering.Result, flows []Flow) (int, error) {
	for _, f := range flows {
		if pool := lay.Pool(f.From, f.To); f.Amount > len(pool) {
			return 0, fmt.Errorf("balance: flow %d→%d wants %d vertices, pool has %d",
				f.From, f.To, f.Amount, len(pool))
		}
	}
	moved := 0
	for _, f := range flows {
		for _, v := range lay.Pool(f.From, f.To)[:f.Amount] {
			if a.Part[v] != f.From {
				return moved, fmt.Errorf("balance: vertex %d no longer in partition %d", v, f.From)
			}
			a.Part[v] = f.To
			moved++
		}
	}
	return moved, nil
}

// Step runs one complete balancing stage (formulate → solve → apply) with
// the given ε. It reports the flows applied and the LP solution; when the
// LP is infeasible it returns ok=false with nothing applied.
func Step(ctx context.Context, g *graph.Graph, a *partition.Assignment, lay *layering.Result, targets []int, eps float64, solver lp.Solver) (flows []Flow, sol *lp.Solution, ok bool, err error) {
	sizes := a.Sizes(g)
	m, err := Formulate(lay.Delta, sizes, targets, eps)
	if err != nil {
		return nil, nil, false, err
	}
	flows, sol, err = Solve(ctx, m, solver)
	if err != nil {
		return nil, sol, false, err
	}
	if sol.Status != lp.Optimal {
		return nil, sol, false, nil
	}
	if _, err := Apply(a, lay, flows); err != nil {
		return flows, sol, false, err
	}
	return flows, sol, true, nil
}
