package parallel

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

func testWorld(t *testing.T, p int) *comm.World {
	t.Helper()
	w, err := comm.NewWorld(p, comm.CM5())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSolveLPCharge: every rank returns lp.Dense's solution bit for bit,
// the world carries exactly the column-distributed simplex's messages for
// that many pivots, and one rank's clock is the closed-form charge.
func TestSolveLPCharge(t *testing.T) {
	prob := paperFig5LP()
	want, err := lp.Dense{}.Solve(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if want.Status != lp.Optimal || want.Iterations == 0 {
		t.Fatalf("fixture: %v after %d pivots, want an optimum that pivots", want.Status, want.Iterations)
	}
	n, m := lp.DenseSize(prob)
	for _, ranks := range []int{1, 3, 8} {
		w := testWorld(t, ranks)
		sols := make([]*lp.Solution, ranks)
		err := w.Run(func(c *comm.Comm) error {
			sol, err := SolveLP(context.Background(), c, prob)
			sols[c.Rank()] = sol
			return err
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for r, sol := range sols {
			if !reflect.DeepEqual(sol, want) {
				t.Fatalf("ranks=%d: rank %d solution %+v, want lp.Dense's %+v", ranks, r, sol, want)
			}
		}
		// An argmin is a reduction plus a broadcast, 2·(ranks−1) messages;
		// a column broadcast is ranks−1.
		if got, msgs := w.TotalMessages(), int64((3*want.Iterations+2)*(ranks-1)); got != msgs {
			t.Fatalf("ranks=%d: %d messages for %d pivots, want %d", ranks, got, want.Iterations, msgs)
		}
		if ranks == 1 {
			flops := 2*n*m + want.Iterations*(n+m+n*m+m)
			if got, clock := w.MaxClock(), time.Duration(flops)*comm.CM5().FlopTime; got != clock {
				t.Fatalf("1-rank clock %v, want %v (%d flops)", got, clock, flops)
			}
		}
	}
}

// solveParallel runs SolveLP on a world of the given size and returns rank
// 0's solution.
func solveParallel(t *testing.T, ranks int, prob *lp.Problem) *lp.Solution {
	t.Helper()
	w := testWorld(t, ranks)
	sols := make([]*lp.Solution, ranks)
	err := w.Run(func(c *comm.Comm) error {
		sol, err := SolveLP(context.Background(), c, prob)
		if err != nil {
			return err
		}
		sols[c.Rank()] = sol
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < ranks; r++ {
		if sols[r].Status != sols[0].Status {
			t.Fatalf("rank %d status %v != rank 0 %v", r, sols[r].Status, sols[0].Status)
		}
		if sols[r].Status == lp.Optimal && math.Abs(sols[r].Objective-sols[0].Objective) > 1e-9 {
			t.Fatalf("rank %d objective %g != rank 0 %g", r, sols[r].Objective, sols[0].Objective)
		}
	}
	return sols[0]
}

func TestSolveLPMatchesSequential(t *testing.T) {
	// max 3x+2y s.t. x+y<=4, x+3y<=6 → 12.
	p := lp.NewProblem(lp.Maximize, 2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 4)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 3}}, lp.LE, 6)
	for _, ranks := range []int{1, 2, 3, 5} {
		sol := solveParallel(t, ranks, p)
		if sol.Status != lp.Optimal || math.Abs(sol.Objective-12) > 1e-8 {
			t.Fatalf("ranks=%d: %v obj %g, want optimal 12", ranks, sol.Status, sol.Objective)
		}
	}
}

func TestSolveLPInfeasibleAndUnbounded(t *testing.T) {
	inf := lp.NewProblem(lp.Minimize, 1)
	inf.SetObjective(0, 1)
	inf.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, 1)
	inf.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.GE, 2)
	if sol := solveParallel(t, 3, inf); sol.Status != lp.Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	unb := lp.NewProblem(lp.Maximize, 1)
	unb.SetObjective(0, 1)
	unb.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.GE, 1)
	if sol := solveParallel(t, 3, unb); sol.Status != lp.Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestSolveLPRandomAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dense := lp.Dense{}
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		p := lp.NewProblem(lp.Minimize, n)
		for v := 0; v < n; v++ {
			p.SetObjective(v, float64(rng.Intn(9)-4))
			p.SetUpper(v, float64(1+rng.Intn(7)))
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			var terms []lp.Term
			for v := 0; v < n; v++ {
				if cf := rng.Intn(5) - 2; cf != 0 {
					terms = append(terms, lp.Term{Var: v, Coef: float64(cf)})
				}
			}
			if len(terms) == 0 {
				terms = []lp.Term{{Var: 0, Coef: 1}}
			}
			p.AddConstraint(terms, []lp.Rel{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)], float64(rng.Intn(11)-3))
		}
		want, err := dense.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		got := solveParallel(t, 4, p)
		if got.Status != want.Status {
			t.Fatalf("trial %d: parallel %v vs dense %v", trial, got.Status, want.Status)
		}
		if want.Status == lp.Optimal {
			if math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("trial %d: parallel obj %g vs dense %g", trial, got.Objective, want.Objective)
			}
			if err := lp.CheckFeasible(p, got.X, 1e-6); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// grownGrid mirrors the core package's test workload.
func grownGrid(rows, cols, p, extra int, rng *rand.Rand) (*graph.Graph, *partition.Assignment) {
	g := graph.Grid(rows, cols)
	a := partition.New(g.Order(), p)
	w := cols / p
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			q := c / w
			if q >= p {
				q = p - 1
			}
			a.Part[r*cols+c] = int32(q)
		}
	}
	attach := make([]graph.Vertex, 0, 2*rows)
	for r := 0; r < rows; r++ {
		attach = append(attach, graph.Vertex(r*cols+cols-1), graph.Vertex(r*cols+cols-2))
	}
	prev := attach
	for k := 0; k < extra; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		prev = append(prev, v)
	}
	return g, a
}

func TestParallelRepartitionBalances(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(13))
		g, a := grownGrid(8, 16, 4, 24, rng)
		w := testWorld(t, ranks)
		res, err := Repartition(context.Background(), w, g, a, engine.Options{Refine: true})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		sizes := a.Sizes(g)
		targets := partition.Targets(g.NumVertices(), 4)
		for q := range sizes {
			if sizes[q] != targets[q] {
				t.Fatalf("ranks=%d: sizes %v != targets %v", ranks, sizes, targets)
			}
		}
		if res.SimTime <= 0 {
			t.Fatalf("ranks=%d: no simulated time", ranks)
		}
		if ranks > 1 && res.Messages == 0 {
			t.Fatalf("ranks=%d: no messages recorded", ranks)
		}
	}
}

func TestParallelMatchesAcrossRankCounts(t *testing.T) {
	// The SPMD computation must produce the same assignment regardless of
	// how many ranks execute it (ownership only affects cost accounting
	// and message routes, not decisions).
	results := make([][]int32, 0, 3)
	for _, ranks := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(17))
		g, a := grownGrid(6, 12, 4, 16, rng)
		w := testWorld(t, ranks)
		if _, err := Repartition(context.Background(), w, g, a, engine.Options{Refine: true}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		results = append(results, append([]int32(nil), a.Part...))
	}
	for i := 1; i < len(results); i++ {
		for v := range results[0] {
			if results[i][v] != results[0][v] {
				t.Fatalf("assignment diverges at vertex %d between rank counts", v)
			}
		}
	}
}

func TestParallelSpeedupShape(t *testing.T) {
	// More ranks must reduce the simulated makespan on a big-enough
	// problem (the paper's speedup claim, in miniature).
	rng := rand.New(rand.NewSource(23))
	g, a0 := grownGrid(16, 32, 8, 64, rng)

	times := map[int]float64{}
	for _, ranks := range []int{1, 8} {
		a := a0.Clone()
		w := testWorld(t, ranks)
		res, err := Repartition(context.Background(), w, g, a, engine.Options{Refine: true})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		times[ranks] = res.SimTime.Seconds()
	}
	speedup := times[1] / times[8]
	if speedup < 1.5 {
		t.Fatalf("8-rank simulated speedup %.2f, want > 1.5 (T1=%gs T8=%gs)",
			speedup, times[1], times[8])
	}
}

// TestRepartitionRejectsMultilevel: the V-cycle's events carry no charge,
// so the simulator refuses it instead of running it uncharged.
func TestRepartitionRejectsMultilevel(t *testing.T) {
	g, a := grownGrid(4, 8, 2, 4, rand.New(rand.NewSource(3)))
	opt := engine.Options{Multilevel: engine.MultilevelOptions{Enabled: true}}
	if _, err := Repartition(context.Background(), testWorld(t, 2), g, a, opt); err == nil || !strings.Contains(err.Error(), "multilevel") {
		t.Fatalf("err = %v, want an error naming the multilevel V-cycle", err)
	}
}

func TestParallelOrphanClusters(t *testing.T) {
	g := graph.Path(6)
	v1 := g.AddVertex(1)
	v2 := g.AddVertex(1)
	_ = g.AddEdge(v1, v2, 1)
	a := partition.New(6, 2)
	a.Part = []int32{0, 0, 0, 1, 1, 1}
	w := testWorld(t, 2)
	if _, err := Repartition(context.Background(), w, g, a, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if a.Part[v1] < 0 || a.Part[v1] != a.Part[v2] {
		t.Fatalf("orphan cluster split: %d vs %d", a.Part[v1], a.Part[v2])
	}
	if !partition.Balanced(a.Sizes(g)) {
		t.Fatalf("unbalanced: %v", a.Sizes(g))
	}
}

// paperPairs mirrors the lp package's Figure-5 variable layout.
var paperPairs = [][2]int{
	{0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 2},
	{2, 0}, {2, 1}, {2, 3}, {3, 0}, {3, 2},
}

func paperLP(maximize bool, upper []float64, surplus []float64) *lp.Problem {
	sense := lp.Minimize
	if maximize {
		sense = lp.Maximize
	}
	p := lp.NewProblem(sense, len(paperPairs))
	for v := range paperPairs {
		p.SetObjective(v, 1)
		p.SetUpper(v, upper[v])
	}
	for j := 0; j < 4; j++ {
		var terms []lp.Term
		for v, pr := range paperPairs {
			if pr[0] == j {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
			if pr[1] == j {
				terms = append(terms, lp.Term{Var: v, Coef: -1})
			}
		}
		p.AddConstraint(terms, lp.EQ, surplus[j])
	}
	return p
}

func TestSolveLPPaperFigure5(t *testing.T) {
	prob := paperFig5LP()
	for _, ranks := range []int{1, 3, 8} {
		sol := solveParallel(t, ranks, prob)
		if sol.Status != lp.Optimal || math.Abs(sol.Objective-9) > 1e-8 {
			t.Fatalf("ranks=%d: %v obj %g, want optimal 9", ranks, sol.Status, sol.Objective)
		}
	}
}

func TestSolveLPPaperFigure8(t *testing.T) {
	prob := paperLP(true,
		[]float64{1, 1, 1, 2, 1, 0, 1, 1, 2, 1},
		[]float64{0, 0, 0, 0})
	for _, ranks := range []int{1, 4} {
		sol := solveParallel(t, ranks, prob)
		// True optimum of the printed LP is 9 (see lp package tests).
		if sol.Status != lp.Optimal || math.Abs(sol.Objective-9) > 1e-8 {
			t.Fatalf("ranks=%d: %v obj %g, want optimal 9", ranks, sol.Status, sol.Objective)
		}
	}
}

// paperFig5LP is the paper's Figure-5 load-balance LP.
func paperFig5LP() *lp.Problem {
	return paperLP(false,
		[]float64{9, 7, 12, 10, 11, 3, 7, 9, 7, 5},
		[]float64{8, 1, -1, -8})
}

// FuzzSimulatorMatchesEngine: the simulator runs the product pipeline with
// lp.Dense on every rank, so on any grown and edited grid, at any rank
// count, it must leave exactly the assignment — and the error, if any — of
// a sequential engine with the dense solver.
func FuzzSimulatorMatchesEngine(f *testing.F) {
	f.Add(int64(1), uint8(1), true)
	f.Add(int64(7), uint8(0), false)
	f.Add(int64(13), uint8(3), true)
	f.Add(int64(29), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, ranks uint8, refine bool) {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(4)
		g, a := grownGrid(3+rng.Intn(6), 2*p+rng.Intn(10), p, rng.Intn(30), rng)
		for k := rng.Intn(8); k > 0; k-- {
			v := graph.Vertex(rng.Intn(g.Order()))
			u := graph.Vertex(rng.Intn(g.Order()))
			if !g.Alive(v) || !g.Alive(u) {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				_ = g.RemoveVertex(v)
			case 1:
				if u != v {
					g.AddEdgeIfAbsent(u, v, 1)
				}
			case 2:
				if g.Degree(v) > 0 {
					_ = g.RemoveEdge(v, g.Neighbors(v)[0])
				}
			}
		}
		opt := engine.Options{Refine: refine}
		want := a.Clone()
		dense := opt
		dense.Solver = lp.Dense{}
		_, werr := engine.New(g, dense).Repartition(context.Background(), want)
		got := a.Clone()
		_, gerr := Repartition(context.Background(), testWorld(t, 1+int(ranks%4)), g, got, opt)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("engine error %v, simulator error %v", werr, gerr)
		}
		if !slices.Equal(got.Part, want.Part) {
			t.Fatalf("ranks=%d: simulator assignment differs from the dense engine's (engine error %v)", 1+ranks%4, werr)
		}
	})
}
