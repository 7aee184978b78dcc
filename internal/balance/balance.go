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
	"errors"
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
	Prob *lp.Problem
	// Pairs[v] = (i,j) for LP variable v. Under a tolerance Prob has one
	// slack column per partition after these; they carry no flow.
	Pairs [][2]int32
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
// shared quotient-flow builder (the Problem's storage and the pair
// mapping) and the RHS vector. Buffers grow to the largest formulation
// seen and are then reused, so steady-state formulation through a warm
// engine allocates nothing — mirroring the engine's CSR and scratch
// reuse. The Model returned by FormulateTol is owned by the Arena and
// invalidated by its next call. The zero value is ready to use.
type Arena struct {
	flow  lp.QuotientFlow
	model Model
	rhs   []int
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
	prob, pairs := ar.flow.Formulate(lp.Minimize, delta, ar.rhs, slack)
	ar.model = Model{Prob: prob, Pairs: pairs, RHS: ar.rhs}
	return &ar.model, nil
}

// Formulate builds the balance LP for the given layering δ, partition
// sizes and targets, with relaxation ε ≥ 1 (1 = full single-stage
// correction) and exact per-partition equality (the paper's constraint 12).
func Formulate(delta [][]int, sizes, targets []int, eps float64) (*Model, error) {
	return FormulateTol(delta, sizes, targets, eps, 0)
}

// FormulateTol generalizes Formulate with a balance tolerance: each
// partition's net outflow may deviate from its surplus by up to slack
// vertices. slack = 0 reproduces the paper exactly; slack > 0 (a
// ParMETIS-style imbalance allowance) trades residual imbalance for less
// vertex movement. The allowance is a ranged node supply, which is still
// a flow: Prob gains one zero-cost slack column per partition after the
// pair columns (see [lp.QuotientFlow]) and keeps equality rows only.
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

// FlowsInto converts an optimal LP solution into integral flows appended
// to dst[:0], rejecting non-integral values (which the totally unimodular
// formulation rules out up to numerical noise). dst's capacity is kept, so
// a steady-state caller converts solutions without allocating.
func (m *Model) FlowsInto(dst []Flow, sol *lp.Solution) ([]Flow, error) {
	flows := dst[:0]
	for v, x := range sol.X[:len(m.Pairs)] {
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

// ErrUnsolved is matched (errors.Is) by the error Solve and SolveInto
// return when the solver stopped without settling the LP — it hit its
// pivot cap or found the objective unbounded. That says nothing about the
// partition: only lp.Infeasible means the correction does not fit the
// layering's bounds, so only lp.Infeasible may be answered by relaxing ε.
var ErrUnsolved = errors.New("balance: LP solve ended without an optimum")

// Solve runs the solver and converts the LP solution to integral flows.
// The status is Optimal (flows valid) or Infeasible (nil flows, nil
// error): callers must check it before using the flows. Any other status
// is an error matching [ErrUnsolved]. A done context aborts the solve with
// an error matching cancel.ErrCanceled; no flows are produced.
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
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, sol, nil
	default:
		return nil, sol, fmt.Errorf("%w: %s reports %s after %d pivots", ErrUnsolved, solver.Name(), sol.Status, sol.Iterations)
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
