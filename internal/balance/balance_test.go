package balance

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/partition"
)

func TestRelaxedRHSExact(t *testing.T) {
	rhs := relaxedRHS([]int{8, 1, -1, -8}, 1)
	want := []int{8, 1, -1, -8}
	for i := range want {
		if rhs[i] != want[i] {
			t.Fatalf("rhs = %v, want %v", rhs, want)
		}
	}
}

func TestRelaxedRHSZeroSum(t *testing.T) {
	for _, eps := range []float64{1, 2, 3, 7} {
		rhs := relaxedRHS([]int{9, 4, -5, -8}, eps)
		sum := 0
		for _, x := range rhs {
			sum += x
		}
		if sum != 0 {
			t.Fatalf("eps=%g: rhs %v sums to %d", eps, rhs, sum)
		}
	}
}

func TestPropertyRelaxedRHS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(8)
		surplus := make([]int, p)
		for k := 0; k < p-1; k++ {
			surplus[k] = rng.Intn(21) - 10
			surplus[p-1] -= surplus[k]
		}
		eps := 1 + float64(rng.Intn(4))
		rhs := relaxedRHS(surplus, eps)
		sum := 0
		for j, x := range rhs {
			sum += x
			// |rhs| must not exceed |surplus| and direction must agree
			// (zero-sum repair may add at most one unit of drift).
			if surplus[j] == 0 && x != 0 && x != 1 && x != -1 {
				return false
			}
		}
		return sum == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// unbalancedStripes builds a 4×12 grid with a deliberately skewed 3-way
// striping: partition 0 gets 6 columns, partitions 1 and 2 get 3 each.
func unbalancedStripes() (*graph.Graph, *partition.Assignment) {
	g := graph.Grid(4, 12)
	a := partition.New(g.Order(), 3)
	for r := 0; r < 4; r++ {
		for c := 0; c < 12; c++ {
			var q int32
			switch {
			case c < 6:
				q = 0
			case c < 9:
				q = 1
			default:
				q = 2
			}
			a.Part[r*12+c] = q
		}
	}
	return g, a
}

func TestFormulateShape(t *testing.T) {
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), 3)
	m, err := Formulate(lay.Delta, sizes, targets, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Stripes: only adjacent pairs (0,1),(1,0),(1,2),(2,1) have δ>0.
	if len(m.Pairs) != 4 {
		t.Fatalf("pairs = %v, want 4 pairs", m.Pairs)
	}
	if err := m.Prob.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStepBalancesStripes(t *testing.T) {
	for _, solver := range []lp.Solver{lp.Dense{}, lp.Network{}} {
		g, a := unbalancedStripes()
		lay, err := layering.Layer(g, a)
		if err != nil {
			t.Fatal(err)
		}
		targets := partition.Targets(g.NumVertices(), 3)
		flows, sol, ok, err := Step(context.Background(), g, a, lay, targets, 1, solver)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if !ok {
			t.Fatalf("%s: LP infeasible, status %v", solver.Name(), sol.Status)
		}
		sizes := a.Sizes(g)
		if !partition.Balanced(sizes) {
			t.Fatalf("%s: sizes %v not balanced after step", solver.Name(), sizes)
		}
		// Minimal total movement: partition 0 (24 vertices, target 16) can
		// only reach partition 1, and partition 2's deficit of 4 must be
		// forwarded through 1, so the optimum is l(0,1)=8 plus l(1,2)=4.
		total := 0
		for _, f := range flows {
			total += f.Amount
		}
		if total != 12 {
			t.Fatalf("%s: moved %d vertices, want 12 (minimum)", solver.Name(), total)
		}
		if err := a.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStepMovesBoundaryFirst(t *testing.T) {
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Clone()
	targets := partition.Targets(g.NumVertices(), 3)
	_, _, ok, err := Step(context.Background(), g, a, lay, targets, 1, lp.Network{})
	if err != nil || !ok {
		t.Fatalf("step failed: %v ok=%v", err, ok)
	}
	// Every vertex that moved from 0 to 1 must have been on 0's boundary
	// layers nearest to 1 — i.e. no moved vertex has a smaller-level
	// unmoved vertex in the same pool.
	pool := lay.Pool(0, 1)
	movedSet := map[graph.Vertex]bool{}
	for _, v := range pool {
		if before.Part[v] == 0 && a.Part[v] == 1 {
			movedSet[v] = true
		}
	}
	seenUnmoved := false
	for _, v := range pool {
		if movedSet[v] && seenUnmoved {
			t.Fatal("mover skipped a nearer-boundary vertex")
		}
		if !movedSet[v] {
			seenUnmoved = true
		}
	}
}

func TestStepInfeasibleWithoutAdjacency(t *testing.T) {
	// Two disconnected cliques with wildly different sizes: no δ between
	// them, so balancing is impossible and the LP must be infeasible.
	g := graph.NewWithVertices(8)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			_ = g.AddEdge(graph.Vertex(i), graph.Vertex(j), 1)
		}
	}
	_ = g.AddEdge(6, 7, 1)
	a := partition.New(8, 2)
	a.Part = []int32{0, 0, 0, 0, 0, 0, 1, 1}
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	targets := partition.Targets(8, 2)
	_, sol, ok, err := Step(context.Background(), g, a, lay, targets, 1, lp.Network{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("expected infeasible")
	}
	if sol.Status != lp.Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestApplyPoolExhaustion(t *testing.T) {
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Apply(a, lay, []Flow{{From: 0, To: 1, Amount: 10000}})
	if err == nil {
		t.Fatal("over-large flow must error")
	}
}

func TestEpsilonReducesMovement(t *testing.T) {
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	targets := partition.Targets(g.NumVertices(), 3)
	sizes := a.Sizes(g)
	m1, err := Formulate(lay.Delta, sizes, targets, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Formulate(lay.Delta, sizes, targets, 2)
	if err != nil {
		t.Fatal(err)
	}
	f1, s1, err := Solve(context.Background(), m1, lp.Network{})
	if err != nil || s1.Status != lp.Optimal {
		t.Fatalf("eps=1: %v %v", err, s1.Status)
	}
	f2, s2, err := Solve(context.Background(), m2, lp.Network{})
	if err != nil || s2.Status != lp.Optimal {
		t.Fatalf("eps=2: %v %v", err, s2.Status)
	}
	tot := func(fs []Flow) int {
		n := 0
		for _, f := range fs {
			n += f.Amount
		}
		return n
	}
	if tot(f2) >= tot(f1) {
		t.Fatalf("eps=2 moved %d, eps=1 moved %d; relaxation should move less", tot(f2), tot(f1))
	}
}

func TestPropertyStepNeverWorsensBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 3+rng.Intn(3), 8+rng.Intn(8)
		g := graph.Grid(rows, cols)
		p := 2 + rng.Intn(3)
		a := partition.New(g.Order(), p)
		// Random contiguous column split.
		cuts := make([]int, p-1)
		for i := range cuts {
			cuts[i] = 1 + rng.Intn(cols-1)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				q := 0
				for _, cut := range cuts {
					if c >= cut {
						q++
					}
				}
				if q >= p {
					q = p - 1
				}
				a.Part[r*cols+c] = int32(q)
			}
		}
		lay, err := layering.Layer(g, a)
		if err != nil {
			return false
		}
		targets := partition.Targets(g.NumVertices(), p)
		imbBefore := maxDev(a.Sizes(g), targets)
		_, _, ok, err := Step(context.Background(), g, a, lay, targets, 1, lp.Network{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !ok {
			return true // infeasible is acceptable; nothing applied
		}
		imbAfter := maxDev(a.Sizes(g), targets)
		return imbAfter <= imbBefore && a.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func maxDev(sizes, targets []int) int {
	d := 0
	for i := range sizes {
		dev := sizes[i] - targets[i]
		if dev < 0 {
			dev = -dev
		}
		if dev > d {
			d = dev
		}
	}
	return d
}

func TestFormulateTolReducesMovement(t *testing.T) {
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	targets := partition.Targets(g.NumVertices(), 3)
	sizes := a.Sizes(g)
	exact, err := Formulate(lay.Delta, sizes, targets, 1)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := FormulateTol(lay.Delta, sizes, targets, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	fe, se, err := Solve(context.Background(), exact, lp.Network{})
	if err != nil || se.Status != lp.Optimal {
		t.Fatalf("exact: %v %v", err, se)
	}
	fl, sl, err := Solve(context.Background(), loose, lp.Network{})
	if err != nil || sl.Status != lp.Optimal {
		t.Fatalf("loose: %v %v", err, sl)
	}
	tot := func(fs []Flow) int {
		n := 0
		for _, f := range fs {
			n += f.Amount
		}
		return n
	}
	if tot(fl) >= tot(fe) {
		t.Fatalf("slack moved %d, exact moved %d; tolerance should move less", tot(fl), tot(fe))
	}
}

func TestFormulateTolRejectsNegative(t *testing.T) {
	if _, err := FormulateTol([][]int{{0}}, []int{1}, []int{1}, 1, -1); err == nil {
		t.Fatal("negative slack must error")
	}
}

func TestFormulateTolSlackSatisfiesBand(t *testing.T) {
	// After applying a slack-2 solution, every partition is within 2 of
	// its target.
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	targets := partition.Targets(g.NumVertices(), 3)
	m, err := FormulateTol(lay.Delta, a.Sizes(g), targets, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	flows, sol, err := Solve(context.Background(), m, lp.Network{})
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("%v %v", err, sol)
	}
	if _, err := Apply(a, lay, flows); err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	for q := range sizes {
		dev := sizes[q] - targets[q]
		if dev < -2 || dev > 2 {
			t.Fatalf("partition %d deviates by %d (> slack)", q, dev)
		}
	}
}

// TestArenaFormulateMatchesOneShot: the arena-backed formulation must be
// the one-shot formulation exactly (modulo diagnostic names), across
// repeated reuse with changing ε, slack and sizes.
func TestArenaFormulateMatchesOneShot(t *testing.T) {
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), 3)
	var ar Arena
	for _, tc := range []struct {
		eps   float64
		slack int
	}{{1, 0}, {2, 0}, {1, 2}, {4, 1}, {1, 0}} {
		want, err := FormulateTol(lay.Delta, sizes, targets, tc.eps, tc.slack)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ar.FormulateTol(lay.Delta, sizes, targets, tc.eps, tc.slack)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Pairs, want.Pairs) {
			t.Fatalf("eps=%g slack=%d: pairs diverge", tc.eps, tc.slack)
		}
		if !reflect.DeepEqual(got.RHS, want.RHS) {
			t.Fatalf("eps=%g slack=%d: RHS diverges", tc.eps, tc.slack)
		}
		if got.Prob.Sense != want.Prob.Sense || !reflect.DeepEqual(got.Prob.Cons, want.Prob.Cons) {
			t.Fatalf("eps=%g slack=%d: constraints diverge", tc.eps, tc.slack)
		}
		if !reflect.DeepEqual(got.Prob.Obj, want.Prob.Obj) ||
			!reflect.DeepEqual(got.Prob.Upper, want.Prob.Upper) {
			t.Fatalf("eps=%g slack=%d: objective/bounds diverge", tc.eps, tc.slack)
		}
		if err := got.Prob.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaFormulateSteadyStateAllocs: reusing a warm arena for the same
// dimensions must not allocate.
func TestArenaFormulateSteadyStateAllocs(t *testing.T) {
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), 3)
	var ar Arena
	if _, err := ar.FormulateTol(lay.Delta, sizes, targets, 1, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ar.FormulateTol(lay.Delta, sizes, targets, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state arena formulation allocates %.1f objects/op, want 0", allocs)
	}
}

// referenceFormulate is the formulation as it was before the tolerance
// became a slack arc, kept as the reference the shared builder is held
// to: pairs by a plain scan, every partition's row by rescanning all
// pairs (O(P·pairs)), and a tolerance as a GE/LE row pair per partition —
// not a flow, so only the dense oracle solves it.
func referenceFormulate(delta [][]int, rhs []int, slack int) *lp.Problem {
	prob := &lp.Problem{Sense: lp.Minimize}
	var pairs [][2]int
	for i := range delta {
		for j := range delta {
			if i != j && delta[i][j] > 0 {
				pairs = append(pairs, [2]int{i, j})
				prob.Obj = append(prob.Obj, 1)
				prob.Upper = append(prob.Upper, float64(delta[i][j]))
			}
		}
	}
	for j := range rhs {
		var terms []lp.Term
		for v, pr := range pairs {
			if pr[0] == j {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
			if pr[1] == j {
				terms = append(terms, lp.Term{Var: v, Coef: -1})
			}
		}
		if len(terms) == 0 && rhs[j] >= -slack && rhs[j] <= slack {
			continue
		}
		if slack == 0 {
			prob.AddConstraint(terms, lp.EQ, float64(rhs[j]))
		} else {
			prob.AddConstraint(terms, lp.GE, float64(rhs[j]-slack))
			prob.AddConstraint(terms, lp.LE, float64(rhs[j]+slack))
		}
	}
	return prob
}

// canonical maps p's empty slices to nil, the one difference
// reflect.DeepEqual sees between a reused arena and a fresh build.
func canonical(p *lp.Problem) lp.Problem {
	q := lp.Problem{Sense: p.Sense, Names: p.Names}
	q.Obj = append(q.Obj, p.Obj...)
	q.Upper = append(q.Upper, p.Upper...)
	for _, c := range p.Cons {
		q.Cons = append(q.Cons, lp.Constraint{Terms: append([]lp.Term(nil), c.Terms...), Rel: c.Rel, RHS: c.RHS})
	}
	return q
}

// TestFormulateMatchesRescanReference holds the shared quotient-flow builder to
// the reference over sparse random δ (so partitions no pair touches occur
// with zero, within-slack and contradicting surpluses) through one reused
// arena. At slack 0 the Problem is the reference's exactly — same pairs,
// rows, term order, skipped empty rows and contradiction rows. Under a
// tolerance the slack-arc form has equality rows only and, solved by the
// dense oracle, the reference's status and optimum; network pivots it to
// the same optimum; and the pair flows of both satisfy the band.
func TestFormulateMatchesRescanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ctx := context.Background()
	var ar Arena
	net := lp.Session(lp.Network{})
	contradictions, skipped, infeasible, optimal := 0, 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		p := 2 + rng.Intn(9)
		delta := make([][]int, p)
		sizes, targets := make([]int, p), make([]int, p)
		for i := range delta {
			delta[i] = make([]int, p)
			for j := range delta[i] {
				if rng.Intn(4) == 0 {
					delta[i][j] = rng.Intn(6) // the diagonal and zeros must be ignored
				}
			}
			sizes[i], targets[i] = 10+rng.Intn(5), 12
		}
		eps, slack := float64(1+rng.Intn(3)), []int{0, 1, 2, 5}[rng.Intn(4)]
		m, err := ar.FormulateTol(delta, sizes, targets, eps, slack)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceFormulate(delta, m.RHS, slack)
		if slack == 0 {
			if got, want := canonical(m.Prob), canonical(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Problem %+v, reference %+v", trial, got, want)
			}
			for _, c := range ref.Cons {
				if len(c.Terms) == 0 {
					contradictions++
				}
			}
			skipped += p - len(ref.Cons)
		}
		for i, c := range m.Prob.Cons {
			if c.Rel != lp.EQ {
				t.Fatalf("trial %d slack %d: row %d is a %v row", trial, slack, i, c.Rel)
			}
		}
		want, err := lp.Dense{}.Solve(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []lp.Solver{lp.Dense{}, net} {
			got, err := solver.Solve(ctx, m.Prob)
			if err != nil {
				t.Fatalf("trial %d slack %d %s: %v", trial, slack, solver.Name(), err)
			}
			if got.Status != want.Status {
				t.Fatalf("trial %d slack %d %s: status %v, reference %v", trial, slack, solver.Name(), got.Status, want.Status)
			}
			if got.Status != lp.Optimal {
				infeasible++
				continue
			}
			optimal++
			if got.Objective != want.Objective {
				t.Fatalf("trial %d slack %d %s: objective %g, reference %g", trial, slack, solver.Name(), got.Objective, want.Objective)
			}
			flows, err := m.FlowsInto(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			shed := make([]int, p)
			for _, f := range flows {
				shed[f.From] += f.Amount
				shed[f.To] -= f.Amount
			}
			for j, out := range shed {
				if out < m.RHS[j]-slack || out > m.RHS[j]+slack {
					t.Fatalf("trial %d slack %d %s: partition %d sheds %d, want %d ± %d", trial, slack, solver.Name(), j, out, m.RHS[j], slack)
				}
			}
		}
	}
	if contradictions == 0 || skipped == 0 || infeasible == 0 || optimal == 0 {
		t.Fatalf("generator lost a branch: %d contradiction rows, %d skipped rows, %d infeasible and %d optimal solves",
			contradictions, skipped, infeasible, optimal)
	}
}

// statusSolver answers every problem with a fixed status.
type statusSolver struct{ status lp.Status }

func (s statusSolver) Name() string { return "status-fake" }
func (s statusSolver) Solve(context.Context, *lp.Problem) (*lp.Solution, error) {
	return &lp.Solution{Status: s.status, Iterations: 7}, nil
}

// TestSolveUnsolvedIsNotInfeasible: only lp.Infeasible is the partition's
// verdict (nil flows, nil error — the caller relaxes ε). A solver that hit
// its pivot cap or reports an unbounded objective has decided nothing, and
// that is an error matching ErrUnsolved carrying status and pivots.
func TestSolveUnsolvedIsNotInfeasible(t *testing.T) {
	g, a := unbalancedStripes()
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Formulate(lay.Delta, a.Sizes(g), partition.Targets(g.NumVertices(), 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	flows, sol, err := Solve(context.Background(), m, statusSolver{lp.Infeasible})
	if flows != nil || err != nil || sol.Status != lp.Infeasible {
		t.Fatalf("infeasible: flows %v, sol %+v, err %v", flows, sol, err)
	}
	for _, tc := range []struct {
		solver  lp.Solver
		carries string // status and pivots, in the message
	}{
		{statusSolver{lp.IterLimit}, "iteration-limit after 7 pivots"},
		{statusSolver{lp.Unbounded}, "unbounded after 7 pivots"},
		{lp.Network{MaxIter: 1}, "network reports iteration-limit after 1 pivots"},
	} {
		flows, _, err := Solve(context.Background(), m, tc.solver)
		if flows != nil || !errors.Is(err, ErrUnsolved) || !strings.Contains(err.Error(), tc.carries) {
			t.Fatalf("%s: flows %v, err %v, want an error matching ErrUnsolved that says %q", tc.solver.Name(), flows, err, tc.carries)
		}
	}
}

// TestApplyResolvesPoolsBeforeMoving: pools are ordered when first asked
// for, by attachments counted under the assignment as it is then, so
// Apply must ask for every flow's pool before it moves the first vertex.
// Partition 2 has two rim vertices labeled 0: u (id 4) with two edges into
// partition 0 and w (id 3) with one, so the pool reads [u, w]. Flow 0→1
// moves x, one of u's two neighbors in partition 0; a mover that orders
// pool(2,0) only after that move sees a 1–1 attachment tie, breaks it by
// id and moves w instead.
func TestApplyResolvesPoolsBeforeMoving(t *testing.T) {
	const x, y, z, w, u, b = 0, 1, 2, 3, 4, 5
	g := graph.NewWithVertices(6)
	for _, e := range [][2]graph.Vertex{{x, b}, {u, x}, {u, y}, {w, z}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	a := partition.New(6, 3)
	a.Part = []int32{x: 0, y: 0, z: 0, w: 2, u: 2, b: 1}
	lay, err := layering.Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := Apply(a, lay, []Flow{{From: 0, To: 1, Amount: 1}, {From: 2, To: 0, Amount: 1}})
	if err != nil || moved != 2 {
		t.Fatalf("moved %d, err %v", moved, err)
	}
	if want := []int32{x: 1, y: 0, z: 0, w: 2, u: 0, b: 1}; !reflect.DeepEqual(a.Part, want) {
		t.Fatalf("assignment %v, want %v (x to 1, then u — not w — to 0)", a.Part, want)
	}
}
