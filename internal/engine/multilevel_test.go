package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// grownGrid returns a striped grid with extra vertices attached on the
// rightmost partition, so the initial assignment is valid but
// imbalanced — the workload both the flat pipeline and the V-cycle must
// rebalance.
func grownGrid(rows, cols, p, extra int, seed int64) (*graph.Graph, *partition.Assignment) {
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
	rng := rand.New(rand.NewSource(seed))
	prev := []graph.Vertex{graph.Vertex(cols - 1)}
	for k := 0; k < extra; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		a.Part = append(a.Part, int32(p-1))
		prev = append(prev, v)
	}
	return g, a
}

func TestMultilevelColdVCycle(t *testing.T) {
	// Cold start from a degenerate flood-fill: the V-cycle must produce
	// a valid, exactly balanced assignment via the spectral coarsest
	// init, and report the hierarchy it built.
	g := graph.Grid(48, 48)
	a := partition.New(g.Order(), 4)
	for v := range a.Part {
		a.Part[v] = 0
	}
	e := New(g, Options{Multilevel: MultilevelOptions{Enabled: true}})
	defer e.Close()
	st, err := e.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	if maxAbsDev(sizes, targets) != 0 {
		t.Fatalf("not exactly balanced: sizes %v targets %v", sizes, targets)
	}
	if !st.SpectralInit {
		t.Fatal("degenerate cold start did not take the spectral coarsest init")
	}
	if len(st.Levels) == 0 {
		t.Fatal("no hierarchy levels reported")
	}
	for l, ls := range st.Levels {
		if ls.Vertices <= 0 {
			t.Fatalf("level %d reports %d vertices", l, ls.Vertices)
		}
	}
	if pt := st.PhaseTimings; pt.Coarsen <= 0 || pt.Total() < pt.Coarsen+pt.Uncoarsen {
		t.Fatalf("V-cycle timings not plumbed: coarsen %v uncoarsen %v total %v",
			pt.Coarsen, pt.Uncoarsen, pt.Total())
	}
}

func TestMultilevelSmallGraphDegenerateStart(t *testing.T) {
	// A graph the hierarchy cannot coarsen — at most max(64, 16·P) live
	// vertices, or a level 0 that stalls for want of edges — has no coarse
	// level, so the coarsest graph is level 0 itself. A flood-filled first
	// call must still get the spectral first touch WithMultilevel
	// promises and end exactly balanced.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid40x40/p128", graph.Grid(40, 40), 128},
		{"grid10x10/p8", graph.Grid(10, 10), 8},
		{"isolated500/p4", graph.NewWithVertices(500), 4},
	} {
		a := partition.New(tc.g.Order(), tc.p)
		for v := range a.Part {
			a.Part[v] = 0
		}
		e := New(tc.g, Options{Multilevel: MultilevelOptions{Enabled: true}})
		st, err := e.Repartition(context.Background(), a)
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireExactBalance(t, tc.g, a)
		if !st.SpectralInit {
			t.Fatalf("%s: degenerate start did not take the spectral first touch", tc.name)
		}
		if len(st.Levels) != 0 {
			t.Fatalf("%s: %d coarse levels on a graph too small to coarsen", tc.name, len(st.Levels))
		}
	}
}

// attachVertices grows g by k unassigned unit vertices hung in a random
// tree off vertex at (randomGrowthEdit's cases 0/1, aimed at one spot):
// phase 1 puts them all in at's partition, so the next call arrives
// imbalanced.
func attachVertices(g *graph.Graph, a *partition.Assignment, rng *rand.Rand, at graph.Vertex, k int) {
	prev := []graph.Vertex{at}
	for ; k > 0; k-- {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		prev = append(prev, v)
	}
	a.Grow(g.Order())
}

// sizePreservingEdit applies one random edit that leaves every partition
// size as it was: an edge insertion, an edge removal, or a swap of two
// vertices' partitions (which splits the groups they were matched in).
func sizePreservingEdit(g *graph.Graph, a *partition.Assignment, rng *rand.Rand) {
	u := graph.Vertex(rng.Intn(g.Order()))
	v := graph.Vertex(rng.Intn(g.Order()))
	switch rng.Intn(3) {
	case 0:
		g.AddEdgeIfAbsent(u, v, 1)
	case 1:
		if g.Alive(u) && g.Degree(u) > 1 {
			_ = g.RemoveEdge(u, g.Neighbors(u)[rng.Intn(g.Degree(u))])
		}
	default:
		if g.Alive(u) && g.Alive(v) {
			a.Part[u], a.Part[v] = a.Part[v], a.Part[u]
		}
	}
}

// requireHierarchy builds the hierarchy the engine's next V-cycle would
// build over g and a, and runs its structural oracle.
func requireHierarchy(t *testing.T, g *graph.Graph, a *partition.Assignment, opt MultilevelOptions) {
	t.Helper()
	h := coarsen.NewHierarchy(g, coarsen.HierarchyOptions{CoarsenTo: opt.CoarsenTo, Seed: opt.Seed})
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(a); err != nil {
		t.Fatalf("hierarchy invalid: %v", err)
	}
}

func requireExactBalance(t *testing.T, g *graph.Graph, a *partition.Assignment) {
	t.Helper()
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	if sizes, targets := a.Sizes(g), partition.Targets(g.NumVertices(), a.P); maxAbsDev(sizes, targets) != 0 {
		t.Fatalf("not exactly balanced: sizes %v targets %v", sizes, targets)
	}
}

func TestMultilevelBalancedCallSkipsVCycle(t *testing.T) {
	// A call that arrives balanced runs no balancing stage, the V-cycle
	// included: nothing V-cycle-shaped is reported, and the result is the
	// flat pipeline's.
	var events []Event
	opt := Options{
		Refine:     true,
		Observer:   func(ev Event) { events = append(events, ev) },
		Multilevel: MultilevelOptions{Enabled: true, CoarsenTo: 16},
	}
	g, a := grownGrid(32, 32, 4, 40, 21)
	e := New(g, opt)
	defer e.Close()
	ctx := context.Background()
	st, err := e.Repartition(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if st.VCycleSkipped || len(st.Levels) < 2 {
		t.Fatalf("imbalanced cold call: skipped=%v levels=%d", st.VCycleSkipped, len(st.Levels))
	}

	rng := rand.New(rand.NewSource(22))
	for k := 0; k < 8; k++ {
		sizePreservingEdit(g, a, rng)
	}
	gF, aF := g.Clone(), a.Clone()
	events = events[:0]
	st, err = e.Repartition(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if !st.VCycleSkipped {
		t.Fatal("balanced warm call ran the V-cycle")
	}
	if len(st.Levels) != 0 || st.SpectralInit || st.PhaseTimings.Coarsen != 0 ||
		st.PhaseTimings.Uncoarsen != 0 || st.CoarseMoved != 0 || st.VCycleRefined != 0 {
		t.Fatalf("skipped V-cycle leaked stats: %+v", st)
	}
	for _, ev := range events {
		if ev.Phase == PhaseCoarsen || ev.Phase == PhaseUncoarsen {
			t.Fatalf("skipped V-cycle emitted %+v", ev)
		}
	}
	requireExactBalance(t, g, a)

	opt.Multilevel, opt.Observer = MultilevelOptions{}, nil
	eF := New(gF, opt)
	defer eF.Close()
	if _, err := eF.Repartition(ctx, aF); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Part, aF.Part) {
		t.Fatal("skipped multilevel call diverges from the flat pipeline on the same state")
	}

	// Without refinement a skipped warm call stays on the arenas.
	g2, a2 := grownGrid(32, 32, 4, 40, 23)
	e2 := New(g2, Options{Multilevel: MultilevelOptions{Enabled: true}})
	defer e2.Close()
	if _, err := e2.Repartition(ctx, a2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		// Flip one edge back and forth: a size-preserving journaled edit.
		if g2.HasEdge(0, 1) {
			_ = g2.RemoveEdge(0, 1)
		} else {
			_ = g2.AddEdge(0, 1, 1)
		}
		if st, err := e2.Repartition(ctx, a2); err != nil || !st.VCycleSkipped {
			t.Fatalf("warm call: skipped=%v err=%v", st.VCycleSkipped, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("skipped warm multilevel call allocates %.1f objects/op, want 0", allocs)
	}
}

// scatterVertices grows g by k unassigned unit vertices, each hung off a
// random live vertex, so phase 1 spreads them over the partitions.
func scatterVertices(g *graph.Graph, a *partition.Assignment, rng *rand.Rand, k int) {
	n := g.Order()
	for k > 0 {
		if u := graph.Vertex(rng.Intn(n)); g.Alive(u) {
			_ = g.AddEdge(g.AddVertex(1), u, 1)
			k--
		}
	}
	a.Grow(g.Order())
}

func TestMultilevelWarmEqualsOneShot(t *testing.T) {
	// A multilevel engine keeps nothing of the V-cycle between calls, so
	// after a cold start from everything in partition 0 and every later
	// burst — localized (a random tree hung off one vertex) or random
	// (each vertex off a random one), 50 to 850 vertices, with partition
	// drift and edge edits beside it — the warm engine's assignment and
	// cut are a fresh engine's on a clone of the same graph and assignment.
	g := graph.Grid(120, 120)
	a := partition.New(g.Order(), 8)
	for v := range a.Part {
		a.Part[v] = 0
	}
	opt := Options{Refine: true, Multilevel: MultilevelOptions{Enabled: true}}
	e := New(g, opt)
	defer e.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(48))
	for call := 0; call < 7; call++ {
		if call > 0 {
			k := 50 + rng.Intn(801)
			if call%2 == 1 {
				attachVertices(g, a, rng, graph.Vertex(rng.Intn(g.Order())), k)
			} else {
				scatterVertices(g, a, rng, k)
			}
			for d := 0; d < 40; d++ {
				sizePreservingEdit(g, a, rng)
			}
		}
		gF, aF := g.Clone(), a.Clone()
		st, err := e.Repartition(ctx, a)
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if st.VCycleSkipped {
			t.Fatalf("call %d: the burst arrived balanced", call)
		}
		eF := New(gF, opt)
		stF, err := eF.Repartition(ctx, aF)
		if err != nil {
			t.Fatalf("call %d one-shot: %v", call, err)
		}
		cut, cutF := st.CutAfter.TotalWeight, stF.CutAfter.TotalWeight
		eF.Close()
		if !reflect.DeepEqual(a.Part, aF.Part) || cut != cutF {
			t.Fatalf("call %d: warm engine (cut %g) differs from a fresh one (cut %g)", call, cut, cutF)
		}
		requireExactBalance(t, g, a)
	}
}

func TestMultilevelCutWithinBoundOfFlat(t *testing.T) {
	// Quality contract on a paper-scale mesh: the V-cycle's final cut
	// (after the shared fine polish) stays within 1.5x + 16 of the flat
	// pipeline's on the same imbalanced workload.
	build := func(ml bool) float64 {
		g, a := grownGrid(32, 32, 4, 120, 3)
		opt := Options{Refine: true}
		if ml {
			opt.Multilevel = MultilevelOptions{Enabled: true}
		}
		e := New(g, opt)
		defer e.Close()
		st, err := e.Repartition(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatal(err)
		}
		if maxAbsDev(a.Sizes(g), partition.Targets(g.NumVertices(), a.P)) != 0 {
			t.Fatal("imbalanced result")
		}
		return st.CutAfter.TotalWeight
	}
	flat := build(false)
	mlc := build(true)
	if mlc > 1.5*flat+16 {
		t.Fatalf("V-cycle cut %g exceeds bound 1.5*%g+16", mlc, flat)
	}
}

func TestMultilevelDisabledLeavesPipelineUntouched(t *testing.T) {
	g, a := grownGrid(16, 16, 4, 20, 7)
	e := New(g, Options{})
	defer e.Close()
	st, err := e.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Levels) != 0 || st.PhaseTimings.Coarsen != 0 || st.PhaseTimings.Uncoarsen != 0 ||
		st.SpectralInit || st.CoarseMoved != 0 || st.VCycleRefined != 0 {
		t.Fatalf("flat pipeline leaked V-cycle stats: %+v", st)
	}
}

func TestMultilevelObserverEventsPaired(t *testing.T) {
	var events []Event
	g, a := grownGrid(24, 24, 4, 30, 9)
	e := New(g, Options{
		Observer:   func(ev Event) { events = append(events, ev) },
		Multilevel: MultilevelOptions{Enabled: true},
	})
	defer e.Close()
	if _, err := e.Repartition(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	// Every Start must pair with an End of the same (Phase, Stage), and
	// the coarsen/uncoarsen phases must both appear.
	open := map[[2]int]int{}
	sawCoarsen, sawUncoarsen := false, false
	for _, ev := range events {
		key := [2]int{int(ev.Phase), ev.Stage}
		switch ev.Kind {
		case EventStart:
			open[key]++
		case EventEnd:
			open[key]--
			if open[key] < 0 {
				t.Fatalf("end without start: %+v", ev)
			}
		}
		if ev.Phase == PhaseCoarsen {
			sawCoarsen = true
		}
		if ev.Phase == PhaseUncoarsen {
			sawUncoarsen = true
		}
	}
	for key, n := range open {
		if n != 0 {
			t.Fatalf("unpaired span %v (%d open)", key, n)
		}
	}
	if !sawCoarsen || !sawUncoarsen {
		t.Fatalf("missing V-cycle phases: coarsen=%v uncoarsen=%v", sawCoarsen, sawUncoarsen)
	}
}

// TestMultilevelStatsCloneDetachesLevels: the clone of a real V-cycle's
// Stats keeps every hierarchy level and none of the engine's arena.
func TestMultilevelStatsCloneDetachesLevels(t *testing.T) {
	g, a := grownGrid(24, 24, 4, 30, 13)
	e := New(g, Options{Multilevel: MultilevelOptions{Enabled: true}})
	defer e.Close()
	st, err := e.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	clone := st.Clone()
	if len(clone.Levels) != len(st.Levels) {
		t.Fatal("clone dropped levels")
	}
	if len(st.Levels) > 0 {
		st.Levels[0].Vertices = -1
		if clone.Levels[0].Vertices == -1 {
			t.Fatal("clone aliases the Levels arena")
		}
	}
}
