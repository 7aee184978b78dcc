package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// netSession returns a fresh network session.
func netSession() Solver { return Session(Network{}) }

// agreeWithDense solves p with s and with the dense oracle and checks
// status, objective and feasibility.
func agreeWithDense(t *testing.T, label string, s Solver, p *Problem) *Solution {
	t.Helper()
	ctx := context.Background()
	want, err := Dense{}.Solve(ctx, p)
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	got, err := s.Solve(ctx, p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, dense says %v", label, got.Status, want.Status)
	}
	if got.Status != Optimal {
		return got
	}
	if math.Abs(got.Objective-want.Objective) > 1e-6 {
		t.Fatalf("%s: objective %g, dense says %g", label, got.Objective, want.Objective)
	}
	if err := CheckFeasible(p, got.X, 1e-9); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return got
}

// TestNetworkRecognizer: the pipeline's LPs — a tolerance's ranged
// supplies included — are pivoted on the tree and agree with the oracle;
// every near-miss of the node-arc incidence shape is refused with
// ErrNotFlow naming the offending row or column, never solved wrongly.
func TestNetworkRecognizer(t *testing.T) {
	// x0: row0 → row1, x1: row1 → row0, both capped; a feasible exchange.
	base := func() *Problem {
		p := NewProblem(Minimize, 2)
		p.Obj = []float64{1, 2}
		p.Upper = []float64{5, 5}
		p.AddConstraint([]Term{{0, 1}, {1, -1}}, EQ, 2)
		p.AddConstraint([]Term{{0, -1}, {1, 1}}, EQ, -2)
		return p
	}
	cases := []struct {
		name    string
		p       *Problem
		refused string // what the ErrNotFlow must name; "" = a flow
	}{
		{"paper figure 5 (balance)", paperFig5Problem(), ""},
		{"paper figure 8 (refine)", paperFig8Problem(), ""},
		{"two-node exchange", base(), ""},
		{"ranged supplies (slack arcs to the root)", func() *Problem {
			p := base()
			for i := range p.Cons {
				p.Obj, p.Upper = append(p.Obj, 0), append(p.Upper, 2)
				p.Cons[i].Terms = append(p.Cons[i].Terms, Term{len(p.Obj) - 1, 1})
				p.Cons[i].RHS++
			}
			return p
		}(), ""},
		{"coefficient 2", func() *Problem {
			p := base()
			p.Cons[0].Terms[0].Coef = 2
			return p
		}(), "row 0"},
		{"a GE row", func() *Problem {
			p := base()
			p.Cons[1].Rel = GE
			return p
		}(), "row 1"},
		{"a column in three rows", func() *Problem {
			p := base()
			p.AddConstraint([]Term{{0, 1}}, EQ, 2)
			return p
		}(), "column 0"},
		{"two +1s in one column", func() *Problem {
			p := base()
			p.Cons[1].Terms[0].Coef = 1
			p.Cons[1].RHS = 2
			return p
		}(), "column 0"},
		{"both signs in one row", func() *Problem {
			p := base()
			p.Cons[0].Terms = []Term{{0, 1}, {0, -1}, {1, -1}}
			p.Cons[1].Terms = []Term{{1, 1}}
			return p
		}(), "column 0"},
		{"negative cost with Inf upper", func() *Problem {
			p := base()
			p.Obj[1], p.Upper[1] = -1, Inf
			return p
		}(), "column 1"},
		{"a column in no row", func() *Problem {
			p := base()
			p.Obj = append(p.Obj, 1)
			p.Upper = append(p.Upper, 3)
			return p
		}(), "column 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.refused == "" {
				agreeWithDense(t, tc.name, netSession(), tc.p)
				return
			}
			sol, err := netSession().Solve(context.Background(), tc.p)
			if !errors.Is(err, ErrNotFlow) || sol != nil {
				t.Fatalf("got (%+v, %v), want a refusal matching ErrNotFlow", sol, err)
			}
			if !strings.Contains(err.Error(), tc.refused) {
				t.Fatalf("error %q does not name %s", err, tc.refused)
			}
		})
	}
}

// randomNetworkLP builds a random flow LP larger than the fuzz decoder's:
// up to 24 rows, root arcs, zero capacities, uncapped non-negative-cost
// arcs, rows no arc touches, and supplies that only sometimes balance.
func randomNetworkLP(rng *rand.Rand) *Problem {
	m := 1 + rng.Intn(24)
	n := 1 + rng.Intn(4*m)
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	p := NewProblem(sense, n)
	rows := make([][]Term, m)
	net := make([]int, m) // what a random in-bounds flow leaves at each row
	for v := 0; v < n; v++ {
		tail, head := rng.Intn(m+1), rng.Intn(m+1)
		if tail == head {
			head = (tail + 1) % (m + 1)
		}
		u := rng.Intn(7)
		p.Upper[v] = float64(u)
		p.Obj[v] = float64(rng.Intn(9) - 4)
		if c := p.Obj[v]; rng.Intn(8) == 0 && (c == 0 || (c > 0) == (sense == Minimize)) {
			p.Upper[v] = Inf
		}
		x := 0
		if u > 0 {
			x = rng.Intn(u + 1)
		}
		if tail < m {
			rows[tail] = append(rows[tail], Term{v, 1})
			net[tail] += x
		}
		if head < m {
			rows[head] = append(rows[head], Term{v, -1})
			net[head] -= x
		}
	}
	feasible := rng.Intn(3) > 0
	for i := 0; i < m; i++ {
		rhs := net[i]
		if !feasible {
			rhs = rng.Intn(9) - 4
		}
		p.AddConstraint(rows[i], EQ, float64(rhs))
	}
	return p
}

// TestNetworkAgainstDense holds the tree pivots to the oracle on random
// flow LPs of pipeline-like size, through one long-lived session so stale
// arena contents of every earlier shape are in play, and checks the
// solver's two structural promises: integer data gives an exactly
// integral vertex, and none of these problems is refused.
func TestNetworkAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := netSession()
	optimal := 0
	for trial := 0; trial < 1500; trial++ {
		p := randomNetworkLP(rng)
		sol := agreeWithDense(t, "trial", s, p)
		if sol.Status != Optimal {
			continue
		}
		optimal++
		for v, x := range sol.X {
			if x != math.Trunc(x) {
				t.Fatalf("trial %d: x[%d] = %v is not integral", trial, v, x)
			}
		}
	}
	if optimal < 300 {
		t.Fatalf("only %d of 1500 trials were feasible: the generator lost its feasible branch", optimal)
	}
}

// TestNetworkPureFunctionOfProblem: the same Problem solved twice through
// one session (with a different problem in between) and once through a
// fresh session gives bit-identical results — nothing but arenas crosses
// solves, which is what warm ≡ cold and the benchmark's per-pass
// assignment fingerprints rest on.
func TestNetworkPureFunctionOfProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ctx := context.Background()
	s := netSession()
	snapshot := func(sol *Solution, err error) *Solution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		c := *sol
		c.X = append([]float64(nil), sol.X...)
		return &c
	}
	for trial := 0; trial < 200; trial++ {
		p, other := randomNetworkLP(rng), randomNetworkLP(rng)
		first := snapshot(s.Solve(ctx, p))
		snapshot(s.Solve(ctx, other))
		sameSolution(t, "second solve, same session", snapshot(s.Solve(ctx, p)), first)
		sameSolution(t, "fresh session", snapshot(netSession().Solve(ctx, p)), first)
		sameSolution(t, "stateless value", snapshot(Network{}.Solve(ctx, p)), first)
	}
}

// TestNetworkWarmSolveAllocatesNothing: once a session's arenas have
// grown to a problem, solving it again allocates nothing.
func TestNetworkWarmSolveAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	p := randomFlowLP(rand.New(rand.NewSource(3)), 12)
	s := netSession()
	if _, err := s.Solve(ctx, p); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Solve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm solve allocates %.1f/op, want 0", allocs)
	}
}

// sameSolution asserts exact equality — bit-identical floats, not
// approximate agreement.
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
