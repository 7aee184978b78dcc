package lp

import (
	"fmt"
	"sort"
	"sync"
)

// The solver registry maps stable names to Solver implementations so
// configuration surfaces (functional options, CLI flags, bench configs)
// can select a simplex by name — and so out-of-tree solvers can ship as
// drop-ins via Register.
var (
	registryMu sync.RWMutex
	registry   = map[string]Solver{}
)

// DefaultSolverName is the solver used when no name is given.
const DefaultSolverName = "network"

func init() {
	MustRegister("dense", Dense{})
	MustRegister("network", Network{})
}

// Default returns the registered default solver ([DefaultSolverName]):
// the one fallback every nil-solver call site resolves through.
func Default() Solver {
	s, err := Lookup(DefaultSolverName)
	if err != nil {
		panic(err) // unreachable: the default is registered in init
	}
	return s
}

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

// Register adds a named solver. Empty names and duplicates are rejected
// so a typo cannot silently shadow a built-in.
func Register(name string, s Solver) error {
	if name == "" {
		return fmt.Errorf("lp: register: empty solver name")
	}
	if s == nil {
		return fmt.Errorf("lp: register %q: nil solver", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("lp: register %q: already registered", name)
	}
	registry[name] = s
	return nil
}

// MustRegister is Register for init-time use; it panics on error.
func MustRegister(name string, s Solver) {
	if err := Register(name, s); err != nil {
		panic(err)
	}
}

// Lookup resolves a solver by name; "" selects DefaultSolverName. The
// error lists the registered names so a typo is self-diagnosing.
func Lookup(name string) (Solver, error) {
	if name == "" {
		name = DefaultSolverName
	}
	registryMu.RLock()
	s, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("lp: unknown solver %q (registered: %v)", name, Names())
	}
	return s, nil
}

// Names returns the registered solver names in sorted order.
func Names() []string {
	registryMu.RLock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	registryMu.RUnlock()
	sort.Strings(out)
	return out
}
