// Package lp implements the linear-programming layer of the incremental
// partitioner: a small modeling API, the one routine that formulates the
// pipeline's LPs (QuotientFlow, flow.go) and two simplex solvers, each
// registered under a stable name (see registry.go) — one for production,
// one independent oracle.
//
//   - Network ("network", the default): a bounded-variable network
//     simplex. Every LP the pipeline formulates — balance, refine, and a
//     balance tolerance's ranged supplies, which are one slack arc per
//     partition — is a min-cost flow on the partition quotient graph; it
//     pivots them on a spanning tree instead of a tableau and refuses
//     anything that is not a flow with ErrNotFlow.
//   - Dense ("dense"): the classical two-phase dense-tableau simplex, the
//     solver the paper uses ("We have used a dense version of simplex
//     algorithm") and the general-LP path. It is the slowest on every
//     measured row and stays as the oracle: it materializes bounds as
//     rows and shares no pivoting code with Network, so
//     FuzzSolverAgreement holds Network to it. The SPMD simulator
//     (parallel.SolveLP) solves with it too.
//
// Both return basic optimal solutions; on the flow problems built by the
// balance and refine phases those are integral by total unimodularity.
package lp

import (
	"context"
	"fmt"
	"math"
)

// Sense is the optimization direction.
type Sense int

const (
	Minimize Sense = iota
	Maximize
)

// Rel is a constraint relation.
type Rel int

const (
	LE Rel = iota // ≤
	EQ            // =
	GE            // ≥
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	}
	return "?"
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a sparse linear constraint Σ Coef·x Rel RHS.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   float64
}

// Inf marks an absent upper bound.
var Inf = math.Inf(1)

// Problem is a linear program over variables x ≥ 0 with optional upper
// bounds. Build one with NewProblem and the Add* methods.
type Problem struct {
	Sense Sense
	Obj   []float64    // objective coefficients, len = NumVars
	Upper []float64    // per-variable upper bounds (Inf if free above)
	Cons  []Constraint // general constraints
	Names []string     // optional variable names for diagnostics
}

// NewProblem returns a problem with n variables, zero objective and no
// constraints. All variables are bounded below by 0 and unbounded above.
func NewProblem(sense Sense, n int) *Problem {
	p := &Problem{
		Sense: sense,
		Obj:   make([]float64, n),
		Upper: make([]float64, n),
	}
	for i := range p.Upper {
		p.Upper[i] = Inf
	}
	return p
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.Obj) }

// SetObjective sets the objective coefficient of variable v.
func (p *Problem) SetObjective(v int, c float64) { p.Obj[v] = c }

// SetUpper sets the upper bound of variable v.
func (p *Problem) SetUpper(v int, u float64) { p.Upper[v] = u }

// AddConstraint appends a general constraint.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) {
	p.Cons = append(p.Cons, Constraint{Terms: terms, Rel: rel, RHS: rhs})
}

// Validate checks indices and values, returning the first problem found.
func (p *Problem) Validate() error {
	n := p.NumVars()
	if len(p.Upper) != n {
		return fmt.Errorf("lp: %d upper bounds for %d variables", len(p.Upper), n)
	}
	for v, u := range p.Upper {
		if u < 0 {
			return fmt.Errorf("lp: variable %d has negative upper bound %g", v, u)
		}
	}
	for i, c := range p.Cons {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= n {
				return fmt.Errorf("lp: constraint %d references variable %d (have %d)", i, t.Var, n)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("lp: constraint %d has non-finite coefficient", i)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite RHS", i)
		}
	}
	return nil
}

// Status reports the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // variable values (valid when Status == Optimal)
	Objective  float64   // objective value in the problem's own sense
	Iterations int       // simplex pivots performed
}

// Solver is a simplex implementation. Implementations must honor the
// context: long pivot loops poll it periodically and abort with an error
// matching cancel.ErrCanceled (wrapping context.Cause) once it is done.
type Solver interface {
	// Solve optimizes p. A non-nil error reports a malformed problem, a
	// canceled context, or an internal failure; Infeasible/Unbounded are
	// reported via Status with a nil error.
	Solve(ctx context.Context, p *Problem) (*Solution, error)
	// Name identifies the solver in benchmarks and stats.
	Name() string
}

// feasTol is the feasibility/optimality tolerance shared by the solvers.
const feasTol = 1e-9

// ctxCheckMask controls how often the pivot loops poll their context:
// every (ctxCheckMask+1) iterations. A power-of-two mask keeps the check
// a single AND on the hot path.
const ctxCheckMask = 255

// CheckFeasible verifies that x satisfies all bounds and constraints of p
// within tol, returning a descriptive error for the first violation. Used
// by tests and by the movers before acting on an LP solution.
func CheckFeasible(p *Problem, x []float64, tol float64) error {
	if len(x) != p.NumVars() {
		return fmt.Errorf("lp: solution has %d values for %d variables", len(x), p.NumVars())
	}
	for v, xv := range x {
		if xv < -tol {
			return fmt.Errorf("lp: x[%d] = %g violates x ≥ 0", v, xv)
		}
		if xv > p.Upper[v]+tol {
			return fmt.Errorf("lp: x[%d] = %g violates upper bound %g", v, xv, p.Upper[v])
		}
	}
	for i, c := range p.Cons {
		var lhs float64
		for _, t := range c.Terms {
			lhs += t.Coef * x[t.Var]
		}
		switch c.Rel {
		case LE:
			if lhs > c.RHS+tol {
				return fmt.Errorf("lp: constraint %d: %g <= %g violated", i, lhs, c.RHS)
			}
		case GE:
			if lhs < c.RHS-tol {
				return fmt.Errorf("lp: constraint %d: %g >= %g violated", i, lhs, c.RHS)
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return fmt.Errorf("lp: constraint %d: %g = %g violated", i, lhs, c.RHS)
			}
		}
	}
	return nil
}

// Objective evaluates p's objective at x.
func Objective(p *Problem, x []float64) float64 {
	var s float64
	for v, c := range p.Obj {
		s += c * x[v]
	}
	return s
}
