package igp

import (
	"repro/internal/cancel"
	"repro/internal/lp"
)

// Solver is the pluggable simplex seam: anything that can optimize an
// [LPProblem] can drive the balance and refinement phases. Implementations
// must honor the context — long pivot loops are expected to poll it every
// few hundred iterations and abort with an error matching [ErrCanceled]
// (wrap the cause from context.Cause) once it is done.
//
// Register an implementation with [RegisterSolver] and select it with
// [WithSolver]; the built-ins ("network" and "dense") register
// themselves at init.
type Solver = lp.Solver

// LPProblem is the linear program handed to a Solver: minimize/maximize
// Obj·x subject to the sparse constraints in Cons, 0 ≤ x ≤ Upper.
type LPProblem = lp.Problem

// LPSolution is a Solver's result: Status, the variable vector X (valid
// when Status == LPOptimal), the objective value, and the pivot count
// (reported as Stats.LPIterations).
type LPSolution = lp.Solution

// LPConstraint is one sparse constraint row of an LPProblem.
type LPConstraint = lp.Constraint

// LPTerm is one coefficient of a sparse constraint row.
type LPTerm = lp.Term

// LPStatus reports the outcome of a solve.
type LPStatus = lp.Status

// The LPStatus values a Solver may report.
const (
	LPOptimal    = lp.Optimal
	LPInfeasible = lp.Infeasible
	LPUnbounded  = lp.Unbounded
	LPIterLimit  = lp.IterLimit
)

// RegisterSolver adds a named Solver implementation to the registry
// consulted by [WithSolver] (and the cmd/ binaries' -solver flags).
// Empty and duplicate names are rejected, so a custom solver cannot
// silently shadow a built-in. Registration is typically done from an
// init function; it is safe for concurrent use.
func RegisterSolver(name string, s Solver) error { return lp.Register(name, s) }

// SolverNames returns the names of all registered solvers in sorted
// order: the built-ins "dense" and "network" (the default), plus
// anything added via RegisterSolver.
func SolverNames() []string { return lp.Names() }

// ErrCanceled is the sentinel every context-driven abort matches:
// errors.Is(err, ErrCanceled) is true exactly when a Repartition (or a
// solve inside one) stopped because its context was done. The returned
// error is a [*CanceledError] wrapping context.Cause, so
// errors.Is(err, context.DeadlineExceeded) etc. also work.
var ErrCanceled = cancel.ErrCanceled

// CanceledError is the typed error returned for context-driven aborts:
// Op names the pipeline stage that observed the done context, Cause
// carries context.Cause at that moment.
type CanceledError = cancel.Error
