package lp

import (
	"context"
	"testing"

	"repro/internal/par"
)

// forcePar drops the sharding work threshold to 1 so even the tiny LPs
// these tests build fork the kernels (the production threshold would
// keep them inline, which is the right latency call but would leave the
// sharded code path untested).
func forcePar(t testing.TB, s Solver, grp *par.Group, procs int) Solver {
	t.Helper()
	ses := Session(s, WithWorkers(grp, procs))
	switch ps := ses.(type) {
	case *DualWarm:
		ps.pp.minWork = 1
	case *boundedSession:
		ps.pp.minWork = 1
	default:
		t.Fatalf("unexpected session type %T", ses)
	}
	return ses
}

// sameSolution asserts exact equality — bit-identical floats, not
// approximate agreement. That is the sharded kernels' contract.
func sameSolution(t *testing.T, label string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", label, got.Status, want.Status)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d, want %d", label, got.Iterations, want.Iterations)
	}
	if got.Objective != want.Objective {
		t.Fatalf("%s: objective %x, want %x (not bit-identical)", label, got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: |X| %d, want %d", label, len(got.X), len(want.X))
	}
	for j := range got.X {
		if got.X[j] != want.X[j] {
			t.Fatalf("%s: X[%d] = %x, want %x (not bit-identical)", label, j, got.X[j], want.X[j])
		}
	}
}

// solveChain runs the cold + two warm-perturbed solves through one
// session and snapshots each arena-backed result.
func solveChain(t *testing.T, s Solver, p *Problem, data []byte) []Solution {
	t.Helper()
	p2 := perturbLP(p, data, false)
	p3 := perturbLP(p, data, true)
	out := make([]Solution, 0, 3)
	for _, q := range []*Problem{p, p2, p3} {
		sol, err := s.Solve(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		snap := *sol
		snap.X = append([]float64(nil), sol.X...)
		out = append(out, snap)
	}
	return out
}

var lpParProcs = []int{1, 2, 3, 7, 16}

// TestLPParallelBitIdentical: sharded dual-warm and bounded sessions
// must reproduce the sequential solve chain exactly — status,
// iteration count, objective and every solution coordinate
// bit-identical — for every worker count.
func TestLPParallelBitIdentical(t *testing.T) {
	inputs := [][]byte{
		{2, 1, 3, 200, 1, 2, 3, 4, 5, 6, 7, 8},
		{3, 2, 0, 0, 9, 9, 9, 1, 1, 1, 0, 0, 0, 5},
		{1, 1, 255, 0, 0},
		{4, 3, 1, 7, 2, 9, 4, 6, 1, 8, 3, 5, 2, 7, 1, 9, 0, 4, 2, 6},
	}
	for _, data := range inputs {
		p := decodeLP(data)
		if p == nil {
			continue
		}
		for _, tmpl := range []Solver{NewDualWarm(), Bounded{}} {
			seq := solveChain(t, Session(tmpl), p, data)
			for _, procs := range lpParProcs[1:] {
				var grp par.Group
				ses := forcePar(t, tmpl, &grp, procs)
				chain := solveChain(t, ses, p, data)
				for i := range chain {
					sameSolution(t, ses.Name(), &chain[i], &seq[i])
				}
			}
		}
	}
}

// TestLPSequentialPathStaysSequential: procs = 1 (or an un-wired
// session) must never fork — ParallelSolves stays 0 — while a wired
// session on a forkable LP counts its solves.
func TestLPSequentialPathStaysSequential(t *testing.T) {
	data := []byte{2, 1, 3, 200, 1, 2, 3, 4, 5, 6, 7, 8}
	p := decodeLP(data)

	plain := Session(NewDualWarm()).(*DualWarm)
	if _, err := plain.Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if n := plain.ParallelSolves(); n != 0 {
		t.Fatalf("un-wired session forked %d solves", n)
	}

	var grp par.Group
	one := forcePar(t, NewDualWarm(), &grp, 1).(*DualWarm)
	if _, err := one.Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if n := one.ParallelSolves(); n != 0 {
		t.Fatalf("procs=1 session forked %d solves", n)
	}

	wired := forcePar(t, NewDualWarm(), &grp, 4).(*DualWarm)
	if _, err := wired.Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if n := wired.ParallelSolves(); n == 0 {
		t.Fatal("wired session with minWork=1 never forked")
	}
}

// TestSessionWithWorkers: WithWorkers must configure the forked
// session, not the registered template, and must be a no-op on solvers
// that are not ParallelSolvers.
func TestSessionWithWorkers(t *testing.T) {
	var grp par.Group
	tmpl := NewDualWarm()
	ses, ok := Session(tmpl, WithWorkers(&grp, 4)).(*DualWarm)
	if !ok {
		t.Fatalf("session is %T", ses)
	}
	if ses == tmpl {
		t.Fatal("session was not forked")
	}
	if ses.pp.grp != &grp || ses.pp.procs != 4 {
		t.Fatal("WithWorkers did not configure the session")
	}
	if tmpl.pp.grp != nil || tmpl.pp.procs != 0 {
		t.Fatal("WithWorkers leaked into the registered template")
	}
	// Stateless, non-parallel solver: option silently ignored.
	if s := Session(Dense{}, WithWorkers(&grp, 4)); s != (Dense{}) {
		t.Fatalf("stateless solver changed by WithWorkers: %T", s)
	}
}

// FuzzLPParallelEquivalence is the CI lock on the sharded kernels'
// determinism contract: for fuzz-generated LPs, the cold + warm solve
// chain under every worker count in {1,2,3,7,16} is bit-identical to
// the sequential chain, for both session solvers.
func FuzzLPParallelEquivalence(f *testing.F) {
	f.Add([]byte{2, 1, 3, 200, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{3, 2, 0, 0, 9, 9, 9, 1, 1, 1, 0, 0, 0, 5})
	f.Add([]byte{4, 3, 1, 7, 2, 9, 4, 6, 1, 8, 3, 5, 2, 7, 1, 9, 0, 4, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		if p == nil {
			return
		}
		for _, tmpl := range []Solver{NewDualWarm(), Bounded{}} {
			seq := solveChain(t, Session(tmpl), p, data)
			for _, procs := range lpParProcs[1:] {
				var grp par.Group
				ses := forcePar(t, tmpl, &grp, procs)
				chain := solveChain(t, ses, p, data)
				for i := range chain {
					sameSolution(t, ses.Name(), &chain[i], &seq[i])
				}
			}
		}
	})
}
