package refine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// jaggedStripes builds a 6×6 grid split into two halves with a deliberately
// jagged boundary that refinement should straighten.
func jaggedStripes() (*graph.Graph, *partition.Assignment) {
	g := graph.Grid(6, 6)
	a := partition.New(g.Order(), 2)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			p := int32(0)
			if c >= 3 {
				p = 1
			}
			a.Part[r*6+c] = p
		}
	}
	// Poke a zig-zag: swap two vertices across the boundary.
	a.Part[2*6+2] = 1 // (2,2) joins right
	a.Part[3*6+3] = 0 // (3,3) joins left
	return g, a
}

func TestGainsBasic(t *testing.T) {
	g, a := jaggedStripes()
	c, err := Gains(g, a, false)
	if err != nil {
		t.Fatal(err)
	}
	// The two swapped vertices are surrounded by the other side: they are
	// strict candidates to move back.
	if c.Gain[2*6+2] <= 0 {
		t.Fatalf("vertex (2,2) gain = %g, want > 0", c.Gain[2*6+2])
	}
	if c.Gain[3*6+3] <= 0 {
		t.Fatalf("vertex (3,3) gain = %g, want > 0", c.Gain[3*6+3])
	}
	if c.B[1][0] == 0 || c.B[0][1] == 0 {
		t.Fatalf("B = %v, want candidates both ways", c.B)
	}
}

func TestGainsStrictSubset(t *testing.T) {
	g, a := jaggedStripes()
	loose, err := Gains(g, a, false)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Gains(g, a, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if strict.B[i][j] > loose.B[i][j] {
				t.Fatalf("strict B[%d][%d]=%d exceeds loose %d", i, j, strict.B[i][j], loose.B[i][j])
			}
		}
	}
}

func TestRefineStraightensBoundary(t *testing.T) {
	g, a := jaggedStripes()
	before := partition.Cut(g, a)
	sizesBefore := a.Sizes(g)
	st, err := Refine(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := partition.Cut(g, a)
	if after.TotalWeight >= before.TotalWeight {
		t.Fatalf("cut %g → %g, want improvement", before.TotalWeight, after.TotalWeight)
	}
	// The ideal straight boundary cuts 6 edges.
	if after.Total != 6 {
		t.Fatalf("refined cut = %d, want 6", after.Total)
	}
	sizesAfter := a.Sizes(g)
	for i := range sizesBefore {
		if sizesBefore[i] != sizesAfter[i] {
			t.Fatalf("refinement changed sizes %v → %v", sizesBefore, sizesAfter)
		}
	}
	if st.Moved == 0 || st.Rounds == 0 {
		t.Fatalf("stats %+v, want movement", st)
	}
	if st.CutAfter != 6 || st.CutBefore != float64(before.TotalWeight) {
		t.Fatalf("stats cut %g→%g inconsistent", st.CutBefore, st.CutAfter)
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 4+rng.Intn(4), 4+rng.Intn(4)
		g := graph.Grid(rows, cols)
		p := 2 + rng.Intn(3)
		if g.NumVertices() < p {
			return true
		}
		a := partition.New(g.Order(), p)
		for v := 0; v < g.Order(); v++ {
			a.Part[v] = int32(rng.Intn(p))
		}
		before := partition.Cut(g, a).TotalWeight
		sizesBefore := a.Sizes(g)
		st, err := Refine(g, a, Options{MaxRounds: 4})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		after := partition.Cut(g, a).TotalWeight
		if after > before {
			return false
		}
		if st.CutAfter != after {
			return false
		}
		sizesAfter := a.Sizes(g)
		for i := range sizesBefore {
			if sizesBefore[i] != sizesAfter[i] {
				return false
			}
		}
		return a.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineSolverChoiceEquivalent(t *testing.T) {
	for _, s := range []lp.Solver{lp.Dense{}, lp.Network{}} {
		g, a := jaggedStripes()
		_, err := Refine(g, a, Options{Solver: s})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if cut := partition.Cut(g, a); cut.Total != 6 {
			t.Fatalf("%s: cut %d, want 6", s.Name(), cut.Total)
		}
	}
}

func TestGreedyImprovesJaggedBoundary(t *testing.T) {
	g, a := jaggedStripes()
	before := partition.Cut(g, a).TotalWeight
	moved := Greedy(g, a, 0, 1)
	after := partition.Cut(g, a).TotalWeight
	if moved == 0 {
		t.Fatal("greedy should move the two stranded vertices")
	}
	if after >= before {
		t.Fatalf("greedy cut %g → %g, want improvement", before, after)
	}
	if !partition.Balanced(a.Sizes(g)) {
		t.Fatalf("greedy broke balance: %v", a.Sizes(g))
	}
}

func TestGreedyRespectsBalanceGuard(t *testing.T) {
	// After Greedy with skew s, every partition's size stays within
	// [min(before, target−s), max(before, target+s)]: a partition already
	// outside the band is never pushed further out.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Grid(5, 5)
		p := 2
		a := partition.New(g.Order(), p)
		for v := 0; v < g.Order(); v++ {
			a.Part[v] = int32(rng.Intn(p))
		}
		before := a.Sizes(g)
		targets := partition.Targets(g.NumVertices(), p)
		skew := 1
		Greedy(g, a, 0, skew)
		after := a.Sizes(g)
		for q := 0; q < p; q++ {
			lo := min(before[q], targets[q]-skew)
			hi := max(before[q], targets[q]+skew)
			if after[q] < lo || after[q] > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRejectsDoubleMove(t *testing.T) {
	g, a := jaggedStripes()
	c, err := Gains(g, a, false)
	if err != nil {
		t.Fatal(err)
	}
	_, pairs := Formulate(c)
	// Construct a bogus flow exceeding a pool.
	x := make([]float64, len(pairs))
	for i, pr := range pairs {
		x[i] = float64(c.B[pr[0]][pr[1]] + 5)
	}
	if _, err := Apply(a, c, pairs, x); err == nil {
		t.Fatal("over-pool flow must error")
	}
}

// TestApplyLeavesNoHalfAppliedRound: a round Apply rejects must move
// nothing, whichever pair trips the check — a pool sharing a vertex with
// an earlier pair's, or a bad flow behind pairs that were fine.
func TestApplyLeavesNoHalfAppliedRound(t *testing.T) {
	pool := func(p int, entries map[[2]int][]graph.Vertex) *Candidates {
		c := &Candidates{P: p, B: make([][]int, p), pools: make([][][]graph.Vertex, p)}
		for i := range c.B {
			c.B[i] = make([]int, p)
			c.pools[i] = make([][]graph.Vertex, p)
		}
		for ij, vs := range entries {
			c.pools[ij[0]][ij[1]] = vs
			c.B[ij[0]][ij[1]] = len(vs)
		}
		return c
	}
	pairs := [][2]int32{{0, 1}, {0, 2}}
	for name, tc := range map[string]struct {
		c *Candidates
		x []float64
	}{
		"vertex in two pools":     {pool(3, map[[2]int][]graph.Vertex{{0, 1}: {0, 1}, {0, 2}: {2, 1}}), []float64{2, 2}},
		"flow exceeds later pool": {pool(3, map[[2]int][]graph.Vertex{{0, 1}: {0, 1}, {0, 2}: {2}}), []float64{2, 3}},
		"fractional later flow":   {pool(3, map[[2]int][]graph.Vertex{{0, 1}: {0, 1}, {0, 2}: {2}}), []float64{2, 0.5}},
		"negative later flow":     {pool(3, map[[2]int][]graph.Vertex{{0, 1}: {0, 1}, {0, 2}: {2}}), []float64{2, -1}},
	} {
		a := &partition.Assignment{Part: make([]int32, 4), P: 3} // all in partition 0
		moved, err := Apply(a, tc.c, pairs, tc.x)
		if err == nil || moved != 0 {
			t.Fatalf("%s: Apply = (%d, %v), want (0, error)", name, moved, err)
		}
		for v, p := range a.Part {
			if p != 0 {
				t.Fatalf("%s: vertex %d left in partition %d behind the error", name, v, p)
			}
		}
	}
}

// halfSolver answers every LP with 0.5 on each variable — the fractional
// flow a solver registered from outside could return.
type halfSolver struct{}

func (halfSolver) Name() string { return "half" }
func (halfSolver) Solve(_ context.Context, p *lp.Problem) (*lp.Solution, error) {
	x := make([]float64, len(p.Obj))
	for i := range x {
		x[i] = 0.5
	}
	return &lp.Solution{Status: lp.Optimal, X: x, Objective: 0.5 * float64(len(x))}, nil
}

// TestDriveRejectsFractionalRound: a fractional LP answer aborts
// refinement with the assignment, the sizes and the reported cut exactly
// as they were.
func TestDriveRejectsFractionalRound(t *testing.T) {
	g, a := jaggedStripes()
	want := a.Clone()
	st, err := Refine(g, a, Options{Solver: halfSolver{}})
	if err == nil {
		t.Fatal("fractional flow must abort refinement")
	}
	if !reflect.DeepEqual(a.Part, want.Part) {
		t.Fatal("assignment changed behind the error")
	}
	if st.Rounds != 0 || st.Moved != 0 || st.CutAfter != st.CutBefore || st.Stop != "unsolved" {
		t.Fatalf("stats %+v count a round that was rejected", st)
	}
}

// swapGadget builds a graph on which every round swaps u = 0 (partition
// 0) and v = 1 (partition 1), loose or strict, and nothing else moves: u
// has neighbours v, x (partition 1) and y (partition 0), v has u, w
// (partition 0) and z (partition 1), and x, y, w, z each sit in a triangle
// of their own partition, so they are never candidates. The edges u–y and
// v–z weigh far: at 1 both states cut 3; above 1 (and below 2) the swapped
// state cuts 1 + 2·far while u and v keep a positive gain in both.
func swapGadget(far float64) (*graph.Graph, *partition.Assignment) {
	parts := []int32{0, 1, 1, 0, 0, 1} // u v x y w z
	g := graph.New(len(parts) * 3)
	for range parts {
		g.AddVertex(1)
	}
	for _, e := range []struct {
		u, v graph.Vertex
		w    float64
	}{{0, 1, 1}, {0, 2, 1}, {0, 3, far}, {1, 4, 1}, {1, 5, far}} {
		_ = g.AddEdge(e.u, e.v, e.w)
	}
	for anchor := graph.Vertex(2); anchor < 6; anchor++ {
		t1, t2 := g.AddVertex(1), g.AddVertex(1)
		_ = g.AddEdge(anchor, t1, 1)
		_ = g.AddEdge(anchor, t2, 1)
		_ = g.AddEdge(t1, t2, 1)
		parts = append(parts, parts[anchor], parts[anchor])
	}
	return g, &partition.Assignment{Part: parts, P: 2}
}

// TestDriveStopReasons forces every Stats.Stop value once. The swap
// gadget's first (loose) round does not beat the entry cut, so the strict
// test starts at round 2 (StrictFrom 1), and round 3 undoes round 2: the
// loop ends there with the state the cap would have left — the entry
// state when an odd number of rounds remain, the swapped one when an even
// number does — and only after two strict rounds (cap 2 runs to the cap).
func TestDriveStopReasons(t *testing.T) {
	isolated := func() (*graph.Graph, *partition.Assignment) { // two components, one per partition
		g := graph.New(4)
		for range 4 {
			g.AddVertex(1)
		}
		_ = g.AddEdge(0, 1, 1)
		_ = g.AddEdge(2, 3, 1)
		return g, &partition.Assignment{Part: []int32{0, 0, 1, 1}, P: 2}
	}
	oneWay := func() (*graph.Graph, *partition.Assignment) { // only the centre of a 3×3 grid is a candidate
		g := graph.Grid(3, 3)
		a := partition.New(g.Order(), 2)
		for v := range a.Part {
			a.Part[v] = 1
		}
		a.Part[4] = 0
		return g, a
	}
	unit := func() (*graph.Graph, *partition.Assignment) { return swapGadget(1) }
	for _, tc := range []struct {
		name               string
		build              func() (*graph.Graph, *partition.Assignment)
		opt                Options
		canceled           bool
		stop               string
		rounds, strictFrom int
		cuts               []float64
		uPart              int32 // partition of vertex 0 left behind
	}{
		{"cycle, 5 rounds left", unit, Options{}, false, "cycle", 3, 1, []float64{3, 3, 3}, 0},
		{"cycle, 4 rounds left", unit, Options{MaxRounds: 7}, false, "cycle", 3, 1, []float64{3, 3, 3}, 1},
		{"cycle at the cap", unit, Options{MaxRounds: 3}, false, "cycle", 3, 1, []float64{3, 3, 3}, 1},
		{"loose round regresses", func() (*graph.Graph, *partition.Assignment) { return swapGadget(1.5) },
			Options{}, false, "cycle", 3, 1, []float64{4, 3, 4}, 0},
		{"cap", unit, Options{MaxRounds: 2}, false, "cap", 2, 1, []float64{3, 3}, 0},
		{"no-candidates", isolated, Options{}, false, "no-candidates", 0, 0, nil, 0},
		{"no-gain", oneWay, Options{}, false, "no-gain", 0, 0, nil, 1},
		{"unsolved", unit, Options{Solver: lp.Network{MaxIter: 1}}, false, "unsolved", 0, 0, nil, 0},
		{"canceled", unit, Options{}, true, "canceled", 0, 0, nil, 0},
	} {
		g, a := tc.build()
		ctx, stop := context.WithCancel(context.Background())
		if tc.canceled {
			stop()
		}
		var s Scratch
		c, seeds := g.ToCSR(), g.Vertices()
		st, _, err := Drive(ctx, g, a, tc.opt, func(strict bool) (*Candidates, error) {
			return s.GainsSeeded(c, a, strict, seeds)
		}, nil)
		stop()
		if tc.canceled != errors.Is(err, cancel.ErrCanceled) || (!tc.canceled && err != nil) {
			t.Fatalf("%s: err %v", tc.name, err)
		}
		if st.Stop != tc.stop || st.Rounds != tc.rounds || st.StrictFrom != tc.strictFrom ||
			!slices.Equal(st.RoundCuts, tc.cuts) || a.Part[0] != tc.uPart {
			t.Fatalf("%s: stop %q after %d rounds (%d loose), cuts %v, u in %d; want %q, %d (%d), %v, %d",
				tc.name, st.Stop, st.Rounds, st.StrictFrom, st.RoundCuts, a.Part[0],
				tc.stop, tc.rounds, tc.strictFrom, tc.cuts, tc.uPart)
		}
		if after := partition.Cut(g, a).TotalWeight; st.CutAfter != after {
			t.Fatalf("%s: CutAfter %g, assignment cuts %g", tc.name, st.CutAfter, after)
		}
	}
}

// TestDriveRunningCutExact: RoundCuts must equal the full evaluation
// after every applied round, RoundMoved must account for every move, and
// a regressing tail must be rolled back to the best round — on random
// assignments of unit-weight grids and of fractionally weighted graphs,
// bit for bit on both.
func TestDriveRunningCutExact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Grid(5+rng.Intn(6), 5+rng.Intn(6))
		frac := seed%2 == 1
		if frac {
			for v := 0; v < g.Order(); v++ {
				for _, u := range append([]graph.Vertex(nil), g.Neighbors(graph.Vertex(v))...) {
					if graph.Vertex(v) < u {
						_ = g.RemoveEdge(graph.Vertex(v), u)
						_ = g.AddEdge(graph.Vertex(v), u, 0.1+rng.Float64())
					}
				}
			}
		}
		p := 2 + rng.Intn(4)
		a := partition.New(g.Order(), p)
		for v := range a.Part {
			a.Part[v] = int32(rng.Intn(p))
		}
		var exact []float64
		st, err := Refine(g, a, Options{OnRound: func(int, int) {
			exact = append(exact, partition.Cut(g, a).TotalWeight)
		}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(st.RoundCuts) != st.Rounds || len(exact) != st.Rounds {
			t.Fatalf("seed %d: %d rounds, %d running cuts, %d evaluations", seed, st.Rounds, len(st.RoundCuts), len(exact))
		}
		best, moved := st.CutBefore, 0
		for i, want := range exact {
			if got := st.RoundCuts[i]; got != want {
				t.Fatalf("seed %d round %d: running cut %g, evaluated %g", seed, i+1, got, want)
			}
			best = min(best, want)
			moved += st.RoundMoved[i]
		}
		if len(st.RoundMoved) != st.Rounds || moved != st.Moved {
			t.Fatalf("seed %d: RoundMoved %v over %d rounds sums to %d, Moved %d", seed, st.RoundMoved, st.Rounds, moved, st.Moved)
		}
		if after := partition.Cut(g, a).TotalWeight; st.CutAfter != after || after != best {
			t.Fatalf("seed %d: CutAfter %g, assignment evaluates to %g, best round %g", seed, st.CutAfter, after, best)
		}
	}
}

// TestGainsPatchedMatchesSeeded: patching the pools from the class
// changes Reclassify logged for the moved vertices and their neighbours
// must reproduce a from-scratch scan exactly — pools, order, B and Gain —
// across move batches, two batches between patches (the second putting
// vertices back), both tests and the switches between them, inline and
// sharded seeded scans.
func TestGainsPatchedMatchesSeeded(t *testing.T) {
	for _, procs := range []int{1, 4} {
		c, a, seeds := parallelFixture(t, 600, 7, 31)
		rng := rand.New(rand.NewSource(32))
		s := Scratch{Procs: procs}
		if _, err := s.GainsSeeded(c, a, false, seeds); err != nil {
			t.Fatal(err)
		}
		all := make([]graph.Vertex, c.Order())
		for v := range all {
			all[v] = graph.Vertex(v)
		}
		var row RowScan
		var log []Reclass
		reclassify := func(v graph.Vertex) {
			log = s.Reclassify(&row, c, a, v, log)
			for _, u := range c.Row(v) {
				log = s.Reclassify(&row, c, a, u, log)
			}
		}
		for iter := 0; iter < 60; iter++ {
			log = log[:0]
			var moved []graph.Vertex
			var from []int32
			for k := rng.Intn(80); k > 0; k-- { // an empty batch now and then
				v := graph.Vertex(rng.Intn(c.Order()))
				moved, from = append(moved, v), append(from, a.Part[v])
				a.Part[v] = int32(rng.Intn(a.P))
				reclassify(v)
			}
			if iter%2 == 1 { // a second sync before the patch: put some back
				for k, v := range moved {
					if k%2 == 0 {
						a.Part[v] = from[k]
						reclassify(v)
					}
				}
			}
			strict := iter%3 == 2
			got, err := s.GainsPatched(c, a, strict, log)
			if err != nil {
				t.Fatal(err)
			}
			var fresh Scratch
			want, err := fresh.GainsSeeded(c, a, strict, all)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.B, want.B) || !reflect.DeepEqual(got.Gain, want.Gain) {
				t.Fatalf("procs=%d iter %d strict=%v: B or Gain diverges", procs, iter, strict)
			}
			for i := int32(0); i < int32(a.P); i++ {
				for j := int32(0); j < int32(a.P); j++ {
					if !reflect.DeepEqual(got.Pool(i, j), want.Pool(i, j)) {
						t.Fatalf("procs=%d iter %d strict=%v: pool(%d,%d) = %v, want %v",
							procs, iter, strict, i, j, got.Pool(i, j), want.Pool(i, j))
					}
				}
			}
		}
		// A scratch that never scanned this shape has nothing to patch.
		var cold Scratch
		if _, err := cold.GainsPatched(c, a, false, nil); err == nil {
			t.Fatalf("procs=%d: patching an empty scratch must fail", procs)
		}
	}
}

// TestLPArenaFormulateMatchesOneShot: the arena-backed refinement LP
// must match the one-shot formulation exactly (modulo names), across
// reuse with both candidate-test modes.
func TestLPArenaFormulateMatchesOneShot(t *testing.T) {
	g, a := jaggedStripes()
	var ar LPArena
	for _, strict := range []bool{false, true, false} {
		c, err := Gains(g, a, strict)
		if err != nil {
			t.Fatal(err)
		}
		wantProb, wantPairs := Formulate(c)
		gotProb, gotPairs := ar.Formulate(c)
		if !reflect.DeepEqual(gotPairs, wantPairs) {
			t.Fatalf("strict=%v: pairs diverge", strict)
		}
		if gotProb.Sense != wantProb.Sense || !reflect.DeepEqual(gotProb.Cons, wantProb.Cons) {
			t.Fatalf("strict=%v: constraints diverge", strict)
		}
		if !reflect.DeepEqual(gotProb.Obj, wantProb.Obj) ||
			!reflect.DeepEqual(gotProb.Upper, wantProb.Upper) {
			t.Fatalf("strict=%v: objective/bounds diverge", strict)
		}
		if err := gotProb.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLPArenaSteadyStateAllocs: reusing a warm arena for the same
// candidate shape must not allocate.
func TestLPArenaSteadyStateAllocs(t *testing.T) {
	g, a := jaggedStripes()
	c, err := Gains(g, a, false)
	if err != nil {
		t.Fatal(err)
	}
	var ar LPArena
	ar.Formulate(c)
	allocs := testing.AllocsPerRun(20, func() {
		ar.Formulate(c)
	})
	if allocs > 0 {
		t.Fatalf("steady-state arena formulation allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFormulateMatchesRescanReference: the O(pairs + P) counting fill
// emits the identical rows — same order, same term order, empty rows
// skipped — as the old construction, which built each partition's row by
// rescanning every pair (kept here as the reference), over sparse random
// b(i,j) through one reused arena.
func TestFormulateMatchesRescanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var ar LPArena
	skipped := 0
	for trial := 0; trial < 400; trial++ {
		p := 2 + rng.Intn(9)
		c := &Candidates{P: p, B: make([][]int, p)}
		for i := range c.B {
			c.B[i] = make([]int, p)
			for j := range c.B[i] {
				if rng.Intn(4) == 0 {
					c.B[i][j] = rng.Intn(6) // the diagonal and zeros must be ignored
				}
			}
		}
		prob, pairs := ar.Formulate(c)
		var want [][]lp.Term
		for j := 0; j < p; j++ {
			var terms []lp.Term
			for v, pr := range pairs {
				if int(pr[0]) == j {
					terms = append(terms, lp.Term{Var: v, Coef: 1})
				}
				if int(pr[1]) == j {
					terms = append(terms, lp.Term{Var: v, Coef: -1})
				}
			}
			if len(terms) > 0 {
				want = append(want, terms)
			}
		}
		skipped += p - len(want)
		if len(prob.Cons) != len(want) {
			t.Fatalf("trial %d: %d rows, reference has %d", trial, len(prob.Cons), len(want))
		}
		for k, row := range prob.Cons {
			if row.Rel != lp.EQ || row.RHS != 0 || !reflect.DeepEqual(row.Terms, want[k]) {
				t.Fatalf("trial %d row %d: %+v, reference terms %+v", trial, k, row, want[k])
			}
		}
	}
	if skipped == 0 {
		t.Fatal("generator never produced a partition no pair touches")
	}
}
