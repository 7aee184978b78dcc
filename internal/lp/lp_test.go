package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// allSolvers holds one instance of every simplex implementation.
var allSolvers = []Solver{Dense{}, Network{}}

// solved is one solver's answer to a problem.
type solved struct {
	name string
	*Solution
}

// solveOrRefuse solves p with s. Network has no general-LP path: on a
// problem that is not a flow it must refuse with ErrNotFlow, reported as a
// nil Solution. Every other error fails the test.
func solveOrRefuse(t *testing.T, s Solver, p *Problem) *Solution {
	t.Helper()
	sol, err := s.Solve(context.Background(), p)
	if err != nil {
		if s.Name() == "network" && errors.Is(err, ErrNotFlow) {
			return nil
		}
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return sol
}

// solveAll returns the answer of every solver that did not refuse p; the
// dense oracle never refuses, so there is always one.
func solveAll(t *testing.T, p *Problem) []solved {
	t.Helper()
	var out []solved
	for _, s := range allSolvers {
		if sol := solveOrRefuse(t, s, p); sol != nil {
			out = append(out, solved{s.Name(), sol})
		}
	}
	return out
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x+2y s.t. x+y<=4, x+3y<=6, x,y>=0 -> x=4,y=0, obj 12.
	p := NewProblem(Maximize, 2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Term{{0, 1}, {1, 3}}, LE, 6)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal {
			t.Fatalf("status %v", sol.Status)
		}
		if math.Abs(sol.Objective-12) > 1e-8 {
			t.Fatalf("objective %g, want 12", sol.Objective)
		}
		if err := CheckFeasible(p, sol.X, 1e-8); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x+3y s.t. x+y>=10, x<=6 -> x=6,y=4, obj 24.
	p := NewProblem(Minimize, 2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 3)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 10)
	p.SetUpper(0, 6)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal {
			t.Fatalf("status %v", sol.Status)
		}
		if math.Abs(sol.Objective-24) > 1e-8 {
			t.Fatalf("objective %g, want 24", sol.Objective)
		}
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x+y s.t. x+2y = 4, x,y >= 0 -> y=2, obj 2.
	p := NewProblem(Minimize, 2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 2}}, EQ, 4)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-8 {
			t.Fatalf("got %v obj %g, want optimal 2", sol.Status, sol.Objective)
		}
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3) -> obj 3.
	p := NewProblem(Minimize, 1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Term{{0, -1}}, LE, -3)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-8 {
			t.Fatalf("got %v obj %g, want optimal 3", sol.Status, sol.Objective)
		}
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Minimize, 1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Infeasible {
			t.Fatalf("%s: status %v, want infeasible", sol.name, sol.Status)
		}
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize, 1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 1)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Unbounded {
			t.Fatalf("%s: status %v, want unbounded", sol.name, sol.Status)
		}
	}
}

func TestUpperBoundOnly(t *testing.T) {
	// max x+y with x<=2.5, y<=1 and no general constraints.
	p := NewProblem(Maximize, 2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetUpper(0, 2.5)
	p.SetUpper(1, 1)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal || math.Abs(sol.Objective-3.5) > 1e-8 {
			t.Fatalf("got %v obj %g, want optimal 3.5", sol.Status, sol.Objective)
		}
	}
}

func TestZeroUpperBound(t *testing.T) {
	// A fixed-at-zero variable participates in an equality.
	p := NewProblem(Minimize, 2)
	p.SetObjective(1, 1)
	p.SetUpper(0, 0)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 5)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-8 {
			t.Fatalf("got %v obj %g, want optimal 5", sol.Status, sol.Objective)
		}
		if sol.X[0] > 1e-9 {
			t.Fatalf("x0 = %g, want 0", sol.X[0])
		}
	}
}

// pairIdx maps the paper's l(i,j) variables for P=4 onto indices.
var paperPairs = [][2]int{
	{0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 2},
	{2, 0}, {2, 1}, {2, 3}, {3, 0}, {3, 2},
}

// paperFig5Problem builds the load-balancing LP of the paper's Figure 5.
func paperFig5Problem() *Problem {
	p := NewProblem(Minimize, len(paperPairs))
	upper := []float64{9, 7, 12, 10, 11, 3, 7, 9, 7, 5}
	for v := range paperPairs {
		p.SetObjective(v, 1)
		p.SetUpper(v, upper[v])
	}
	// outflow(j) - inflow(j) = surplus(j); surpluses 8, 1, -1, -8.
	surplus := []float64{8, 1, -1, -8}
	for j := 0; j < 4; j++ {
		var terms []Term
		for v, pr := range paperPairs {
			if pr[0] == j {
				terms = append(terms, Term{v, 1})
			}
			if pr[1] == j {
				terms = append(terms, Term{v, -1})
			}
		}
		p.AddConstraint(terms, EQ, surplus[j])
	}
	return p
}

func TestPaperFigure5LoadBalanceLP(t *testing.T) {
	p := paperFig5Problem()
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", sol.name, sol.Status)
		}
		// The paper's solution l03=8, l12=1 has objective 9, the minimum
		// possible total movement.
		if math.Abs(sol.Objective-9) > 1e-8 {
			t.Fatalf("%s: objective %g, want 9", sol.name, sol.Objective)
		}
		if err := CheckFeasible(p, sol.X, 1e-8); err != nil {
			t.Fatalf("%s: %v", sol.name, err)
		}
	}
}

// paperFig8Problem builds the refinement LP of the paper's Figure 8.
func paperFig8Problem() *Problem {
	p := NewProblem(Maximize, len(paperPairs))
	upper := []float64{1, 1, 1, 2, 1, 0, 1, 1, 2, 1}
	for v := range paperPairs {
		p.SetObjective(v, 1)
		p.SetUpper(v, upper[v])
	}
	for j := 0; j < 4; j++ {
		var terms []Term
		for v, pr := range paperPairs {
			if pr[0] == j {
				terms = append(terms, Term{v, 1})
			}
			if pr[1] == j {
				terms = append(terms, Term{v, -1})
			}
		}
		p.AddConstraint(terms, EQ, 0)
	}
	return p
}

func TestPaperFigure8RefinementLP(t *testing.T) {
	p := paperFig8Problem()
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", sol.name, sol.Status)
		}
		// The paper prints a solution totalling 8 moves, but that printed
		// solution violates its own zero-net-flow constraints (node 1 nets
		// −1, node 2 nets +1) — a misprint in the scanned original. The
		// true optimum of the printed LP is 9, e.g. l01=1, l02=1, l03=1,
		// l10=2, l21=1, l23=1, l30=1, l32=1 (hand-verified circulation).
		if math.Abs(sol.Objective-9) > 1e-8 {
			t.Fatalf("%s: objective %g, want 9", sol.name, sol.Objective)
		}
		if err := CheckFeasible(p, sol.X, 1e-8); err != nil {
			t.Fatalf("%s: %v", sol.name, err)
		}
	}
}

func TestDegenerateBealeStyle(t *testing.T) {
	// A classically degenerate problem; the Bland guard must terminate.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7
	// s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
	//      0.5x4  - 90x5 - 0.02x6 + 3x7 <= 0
	//      x6 <= 1
	// Optimum objective = -0.05.
	p := NewProblem(Minimize, 4)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.SetObjective(3, 6)
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	for _, sol := range solveAll(t, p) {
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", sol.name, sol.Status)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-8 {
			t.Fatalf("%s: objective %g, want -0.05", sol.name, sol.Objective)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewProblem(Minimize, 2)
	p.AddConstraint([]Term{{5, 1}}, LE, 1)
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range variable should fail validation")
	}
	p2 := NewProblem(Minimize, 1)
	p2.SetUpper(0, -1)
	if err := p2.Validate(); err == nil {
		t.Fatal("negative upper bound should fail validation")
	}
	p3 := NewProblem(Minimize, 1)
	p3.AddConstraint([]Term{{0, math.NaN()}}, LE, 1)
	if err := p3.Validate(); err == nil {
		t.Fatal("NaN coefficient should fail validation")
	}
}

func TestDenseSizeReporting(t *testing.T) {
	p := paperFig5Problem()
	vars, cons := DenseSize(p)
	// 10 structural + 10 bound slacks + 4 artificials = 24 columns;
	// 4 equalities + 10 bound rows = 14 rows.
	if cons != 14 {
		t.Fatalf("cons = %d, want 14", cons)
	}
	if vars != 24 {
		t.Fatalf("vars = %d, want 24", vars)
	}
}

// --- brute-force oracle ---------------------------------------------------

// solveSquare solves a dense square linear system by Gaussian elimination
// with partial pivoting, returning ok=false for (near-)singular systems.
func solveSquare(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv, best := -1, 1e-9
		for r := col; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				piv, best = r, v
			}
		}
		if piv < 0 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for j := col; j <= n; j++ {
			m[col][j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = m[i][n]
	}
	return x, true
}

// bruteForce finds the optimum of a bounded LP (every variable must have a
// finite upper bound) by enumerating vertices: every vertex of the
// polytope is the intersection of n active constraint hyperplanes drawn
// from general constraints, x_i = 0, and x_i = u_i.
func bruteForce(p *Problem) (best float64, feasible bool) {
	n := p.NumVars()
	type hyperplane struct {
		a []float64
		b float64
	}
	var hs []hyperplane
	for _, c := range p.Cons {
		a := make([]float64, n)
		for _, t := range c.Terms {
			a[t.Var] += t.Coef
		}
		hs = append(hs, hyperplane{a, c.RHS})
	}
	for v := 0; v < n; v++ {
		lo := make([]float64, n)
		lo[v] = 1
		hs = append(hs, hyperplane{lo, 0})
		hi := make([]float64, n)
		hi[v] = 1
		hs = append(hs, hyperplane{hi, p.Upper[v]})
	}
	idx := make([]int, n)
	var rec func(pos, from int)
	sense := 1.0
	if p.Sense == Maximize {
		sense = -1
	}
	best = math.Inf(1)
	rec = func(pos, from int) {
		if pos == n {
			a := make([][]float64, n)
			b := make([]float64, n)
			for i, k := range idx {
				a[i] = hs[k].a
				b[i] = hs[k].b
			}
			x, ok := solveSquare(a, b)
			if !ok {
				return
			}
			if CheckFeasible(p, x, 1e-6) != nil {
				return
			}
			obj := sense * Objective(p, x)
			if obj < best {
				best = obj
				feasible = true
			}
			return
		}
		for k := from; k < len(hs); k++ {
			idx[pos] = k
			rec(pos+1, k+1)
		}
	}
	rec(0, 0)
	if p.Sense == Maximize {
		best = -best
	}
	return best, feasible
}

// randomGenericLP builds a random LP where every variable has a finite
// upper bound, so brute force is an exact oracle.
func randomGenericLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(3)
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	p := NewProblem(sense, n)
	for v := 0; v < n; v++ {
		p.SetObjective(v, float64(rng.Intn(11)-5))
		p.SetUpper(v, float64(1+rng.Intn(8)))
	}
	m := 1 + rng.Intn(3)
	for i := 0; i < m; i++ {
		var terms []Term
		for v := 0; v < n; v++ {
			c := rng.Intn(7) - 3
			if c != 0 {
				terms = append(terms, Term{v, float64(c)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{0, 1}}
		}
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(15) - 4)
		p.AddConstraint(terms, rel, rhs)
	}
	return p
}

func TestSolversAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		p := randomGenericLP(rng)
		want, feasible := bruteForce(p)
		for _, s := range allSolvers {
			sol := solveOrRefuse(t, s, p)
			if sol == nil {
				continue
			}
			if !feasible {
				if sol.Status != Infeasible {
					t.Fatalf("trial %d %s: status %v, oracle says infeasible", trial, s.Name(), sol.Status)
				}
				continue
			}
			if sol.Status != Optimal {
				t.Fatalf("trial %d %s: status %v, oracle objective %g", trial, s.Name(), sol.Status, want)
			}
			if math.Abs(sol.Objective-want) > 1e-6 {
				t.Fatalf("trial %d %s: objective %g, oracle %g", trial, s.Name(), sol.Objective, want)
			}
			if err := CheckFeasible(p, sol.X, 1e-6); err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
		}
	}
}

// randomFlowLP builds a random balance-style network LP (the shape the
// partitioner generates): integral bounds and integral flow-balance RHS.
func randomFlowLP(rng *rand.Rand, parts int) *Problem {
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < parts; i++ {
		for j := 0; j < parts; j++ {
			if i != j && rng.Intn(2) == 0 {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	if len(pairs) == 0 {
		pairs = append(pairs, pair{0, 1})
	}
	p := NewProblem(Minimize, len(pairs))
	for v := range pairs {
		p.SetObjective(v, 1)
		p.SetUpper(v, float64(rng.Intn(10)))
	}
	// Random surpluses that sum to zero.
	surplus := make([]int, parts)
	for k := 0; k < parts-1; k++ {
		surplus[k] = rng.Intn(7) - 3
		surplus[parts-1] -= surplus[k]
	}
	for j := 0; j < parts; j++ {
		var terms []Term
		for v, pr := range pairs {
			if pr.i == j {
				terms = append(terms, Term{v, 1})
			}
			if pr.j == j {
				terms = append(terms, Term{v, -1})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddConstraint(terms, EQ, float64(surplus[j]))
	}
	return p
}

func TestFlowLPIntegrality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		p := randomFlowLP(rng, 3+rng.Intn(3))
		for _, s := range allSolvers {
			sol, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if sol.Status != Optimal {
				continue // infeasible flow problems are fine
			}
			for v, x := range sol.X {
				if math.Abs(x-math.Round(x)) > 1e-6 {
					t.Fatalf("trial %d %s: x[%d]=%g not integral", trial, s.Name(), v, x)
				}
			}
		}
	}
}

func TestSolversAgreeOnFlowLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		p := randomFlowLP(rng, 4)
		var objs []float64
		var statuses []Status
		for _, s := range allSolvers {
			sol, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			statuses = append(statuses, sol.Status)
			objs = append(objs, sol.Objective)
		}
		for i := 1; i < len(statuses); i++ {
			if statuses[i] != statuses[0] {
				t.Fatalf("trial %d: status disagreement %v", trial, statuses)
			}
		}
		if statuses[0] == Optimal {
			for i := 1; i < len(objs); i++ {
				if math.Abs(objs[i]-objs[0]) > 1e-6 {
					t.Fatalf("trial %d: objective disagreement %v", trial, objs)
				}
			}
		}
	}
}

// TestReducedCostMaximizeFlow hand-checks ReducedCost on a Maximize
// flow: two arcs from one node to the root, max 3·x0 + x1 subject to
// x0 + x1 = 3, x0 ≤ 2, x1 ≤ 2. The optimum x = (2, 1) has x1 strictly
// between its bounds, so the node's dual is −1 in minimization sense
// (costs −3, −1) and the reduced costs are (−3 + 1, −1 + 1) = (−2, 0):
// x0 sits at a bound worth 2 per unit more capacity, and both solvers
// report it negated, not in the problem's own sense.
func TestReducedCostMaximizeFlow(t *testing.T) {
	p := NewProblem(Maximize, 2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 1)
	p.SetUpper(0, 2)
	p.SetUpper(1, 2)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 3)
	for _, s := range allSolvers {
		sol, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sol.Status != Optimal || sol.X[0] != 2 || sol.X[1] != 1 || sol.Objective != 7 {
			t.Fatalf("%s: %v x=%v objective %g, want x=[2 1] objective 7", s.Name(), sol.Status, sol.X, sol.Objective)
		}
		if rc := sol.ReducedCost; len(rc) != 2 || math.Abs(rc[0]+2) > 1e-9 || math.Abs(rc[1]) > 1e-9 {
			t.Fatalf("%s: reduced costs %v, want [-2 0]", s.Name(), rc)
		}
	}
}

func TestIterLimitStatus(t *testing.T) {
	// A solvable problem with MaxIter=1 must stop with IterLimit, not hang
	// or mis-report.
	p := paperFig5Problem()
	for _, s := range []Solver{Dense{MaxIter: 1}, Network{MaxIter: 1}} {
		sol, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != IterLimit {
			t.Fatalf("%s: status %v, want iteration-limit", s.Name(), sol.Status)
		}
	}
}

func TestObjectiveHelper(t *testing.T) {
	p := NewProblem(Minimize, 2)
	p.SetObjective(0, 2)
	p.SetObjective(1, -1)
	if got := Objective(p, []float64{3, 4}); got != 2 {
		t.Fatalf("objective = %g, want 2", got)
	}
}

func TestCheckFeasibleLengthMismatch(t *testing.T) {
	p := NewProblem(Minimize, 2)
	if err := CheckFeasible(p, []float64{1}, 1e-9); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestRelString(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Fatal("relation strings wrong")
	}
	if Rel(99).String() != "?" {
		t.Fatal("unknown relation should render '?'")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal:    "optimal",
		Infeasible: "infeasible",
		Unbounded:  "unbounded",
		IterLimit:  "iteration-limit",
		Status(99): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d → %q, want %q", s, s.String(), want)
		}
	}
}
