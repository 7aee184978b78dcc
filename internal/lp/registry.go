package lp

import "fmt"

// DefaultSolverName is the solver used when no name is given.
const DefaultSolverName = "network"

// Default returns the default solver ([DefaultSolverName]): the one
// fallback every nil-solver call site resolves through.
func Default() Solver { return Network{} }

// SessionSolver is implemented by solvers whose state should be scoped
// to one solve stream — [Network], whose sessions reuse their graph,
// tree and Solution arenas and are therefore not safe to share.
// NewSession returns a fresh instance with the same configuration and
// empty state.
type SessionSolver interface {
	Solver
	// NewSession forks a private instance for one solve stream.
	NewSession() Solver
}

// Session returns a private instance of s for one solve stream: the
// fork from NewSession when s is a [SessionSolver], otherwise s itself
// (stateless solvers need no scoping). The engine calls this at
// construction so a solver's arenas live and die with the engine session
// rather than being shared process-globally.
func Session(s Solver) Solver {
	if ss, ok := s.(SessionSolver); ok {
		return ss.NewSession()
	}
	return s
}

// Lookup resolves one of the two solvers by name: "network" (the
// production spanning-tree simplex; "" selects it) or "dense" (the
// paper's tableau, the oracle). Any other name is an error naming both.
func Lookup(name string) (Solver, error) {
	switch name {
	case "", DefaultSolverName:
		return Network{}, nil
	case "dense":
		return Dense{}, nil
	}
	return nil, fmt.Errorf("lp: unknown solver %q (want network or dense)", name)
}
