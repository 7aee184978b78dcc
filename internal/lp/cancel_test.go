package lp

import (
	"cmp"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cancel"
)

// TestSolveCanceled: every solver's pivot loop polls its context — a
// pre-canceled context aborts the solve with the typed sentinel wrapping
// the context cause, before any pivoting completes.
func TestSolveCanceled(t *testing.T) {
	p := paperFig5Problem()
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	for _, s := range allSolvers {
		_, err := s.Solve(ctx, p)
		if err == nil {
			t.Fatalf("%s: canceled solve returned nil error", s.Name())
		}
		if !errors.Is(err, cancel.ErrCanceled) {
			t.Fatalf("%s: error does not match ErrCanceled: %v", s.Name(), err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error does not wrap context.Canceled: %v", s.Name(), err)
		}
		var typed *cancel.Error
		if !errors.As(err, &typed) {
			t.Fatalf("%s: error is not a *cancel.Error: %v", s.Name(), err)
		}
	}
}

// countdownCtx is live for its first endAt−1 Err polls and canceled from
// the endAt-th on; polls counts them up to that point.
type countdownCtx struct {
	context.Context
	endAt, polls int
}

func (c *countdownCtx) Err() error {
	if c.polls < c.endAt {
		c.polls++
	}
	if c.polls == c.endAt {
		return context.Canceled
	}
	return nil
}

// TestNetworkPollsContextBetweenPivots: the pivot loop checks its context
// every ctxCheckMask+1 pivots, not only on entry — a context that ends
// mid-solve aborts a long solve at the next poll with the typed error.
func TestNetworkPollsContextBetweenPivots(t *testing.T) {
	// A long path 0 → 1 → … → m−1 carrying one unit needs about one pivot
	// per artificial arc driven out, far more than one polling interval.
	const m = 4 * (ctxCheckMask + 1)
	p := NewProblem(Minimize, m-1)
	rows := make([][]Term, m)
	for v := 0; v < m-1; v++ {
		p.Obj[v], p.Upper[v] = 1, 1
		rows[v] = append(rows[v], Term{v, 1})
		rows[v+1] = append(rows[v+1], Term{v, -1})
	}
	for i := range rows {
		rhs := 0.0
		switch i {
		case 0:
			rhs = 1
		case m - 1:
			rhs = -1
		}
		p.AddConstraint(rows[i], EQ, rhs)
	}
	s := netSession()
	sol, err := s.Solve(context.Background(), p)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("uncanceled solve: %v, %+v", err, sol)
	}
	if sol.Iterations <= 2*(ctxCheckMask+1) {
		t.Fatalf("path LP took %d pivots: too few to cross two polls", sol.Iterations)
	}
	ctx := &countdownCtx{Context: context.Background(), endAt: 2}
	if _, err := s.Solve(ctx, p); err == nil {
		t.Fatal("solve outlived a context that ended at its second poll")
	} else if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error is not the typed cancellation: %v", err)
	}
	if ctx.polls != 2 {
		t.Fatalf("context polled %d times, want exactly 2", ctx.polls)
	}
}

// TestRegistryRoundTrip: the solver set is exactly the network default
// and the dense oracle; both resolve by name (and the default by the
// empty name), and anything else — the retired solver names included —
// fails with an error naming both.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range []string{"dense", "network", ""} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if s == nil {
			t.Fatalf("%q: nil solver", name)
		}
		if want := cmp.Or(name, DefaultSolverName); s.Name() != want {
			t.Fatalf("%q resolved to %q", name, s.Name())
		}
	}
	if def, _ := Lookup(""); Default() != def {
		t.Fatalf("Default() is %q, want %q", Default().Name(), DefaultSolverName)
	}
	for _, name := range []string{"no-such-solver", "mwu", "revised", "dual-warm", "bounded"} {
		_, err := Lookup(name)
		if err == nil {
			t.Fatalf("%q must not resolve", name)
		}
		if !strings.Contains(err.Error(), "network") || !strings.Contains(err.Error(), "dense") {
			t.Fatalf("%q: error %q does not name both solvers", name, err)
		}
	}
}
