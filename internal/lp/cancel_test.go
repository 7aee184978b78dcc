package lp

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// TestRegistryRoundTrip: the built-in set is exactly the default, the
// warm-started production solver and the dense oracle; built-ins resolve
// by name (and by the empty default), unknowns — the retired solver
// names included — fail with a listing. Rejected registrations —
// including MustRegister's panic contract — are covered by the table in
// TestRegisterRejections (registry_test.go).
func TestRegistryRoundTrip(t *testing.T) {
	// Other tests leave throwaway "test-…" registrations behind (the
	// registry has no unregister); everything else is a built-in.
	builtins := slices.DeleteFunc(Names(), func(n string) bool { return strings.HasPrefix(n, "test-") })
	if want := []string{"bounded", "dense", "dual-warm"}; !slices.Equal(builtins, want) {
		t.Fatalf("built-in solvers are %v, want exactly %v", builtins, want)
	}
	for _, name := range []string{"dense", "bounded", "dual-warm", ""} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if s == nil {
			t.Fatalf("%q: nil solver", name)
		}
	}
	def, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != DefaultSolverName || Default() != def {
		t.Fatalf("default solver is %q (Default() %q), want %q", def.Name(), Default().Name(), DefaultSolverName)
	}
	for _, name := range []string{"no-such-solver", "mwu", "revised"} {
		_, err := Lookup(name)
		if err == nil {
			t.Fatalf("%q must not resolve", name)
		}
		if listing := fmt.Sprint(Names()); !strings.Contains(err.Error(), listing) {
			t.Fatalf("%q: error %q does not list the registered names %s", name, err, listing)
		}
	}
}
