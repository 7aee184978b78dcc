package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

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
	if st.HierarchyRepaired {
		t.Fatal("first call cannot have repaired a hierarchy")
	}
	if len(st.Levels) == 0 {
		t.Fatal("no hierarchy levels reported")
	}
	for l, ls := range st.Levels {
		if !ls.Rebuilt {
			t.Fatalf("level %d of a cold hierarchy not marked Rebuilt", l)
		}
		if ls.Vertices <= 0 {
			t.Fatalf("level %d reports %d vertices", l, ls.Vertices)
		}
	}
	if pt := st.PhaseTimings; pt.Coarsen <= 0 || pt.Total() < pt.Coarsen+pt.Uncoarsen {
		t.Fatalf("V-cycle timings not plumbed: coarsen %v uncoarsen %v total %v",
			pt.Coarsen, pt.Uncoarsen, pt.Total())
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

// requireHierarchy runs the hierarchy's structural oracle. Check compares
// against the fine assignment, which the polish after the V-cycle has
// moved on from, so one more Update absorbs those moves first; an edit or
// a move the engine's own Update failed to catch up with is not repaired
// by it (nothing journals it any more) and still fails the oracle.
func requireHierarchy(t *testing.T, e *Engine, a *partition.Assignment) {
	t.Helper()
	if _, err := e.ml.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if err := e.ml.Check(a); err != nil {
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

func TestMultilevelWarmRepartitionRepairs(t *testing.T) {
	// After a cold V-cycle, a small growth batch — a call that arrives
	// imbalanced, so the V-cycle runs — must take the journal-repair
	// path: no level recoarsened.
	g, a := grownGrid(32, 32, 4, 40, 1)
	e := New(g, Options{Multilevel: MultilevelOptions{Enabled: true}})
	defer e.Close()
	if _, err := e.Repartition(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	attachVertices(g, a, rand.New(rand.NewSource(2)), 0, 8)
	st, err := e.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.VCycleSkipped {
		t.Fatal("imbalanced warm call skipped the V-cycle")
	}
	if !st.HierarchyRepaired {
		t.Fatal("warm small-edit Repartition rebuilt the hierarchy instead of repairing it")
	}
	requireExactBalance(t, g, a)
}

func TestMultilevelBalancedCallSkipsVCycle(t *testing.T) {
	// A call that arrives balanced runs no balancing stage, the V-cycle
	// included: the hierarchy is not touched, nothing V-cycle-shaped is
	// reported, and the result is the flat pipeline's.
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
	depth := e.ml.Depth()
	coarsest, _ := e.ml.Coarsest()
	epoch := coarsest.Epoch()

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
	if len(st.Levels) != 0 || st.HierarchyRepaired || st.SpectralInit || st.PhaseTimings.Coarsen != 0 ||
		st.PhaseTimings.Uncoarsen != 0 || st.CoarseMoved != 0 || st.VCycleRefined != 0 {
		t.Fatalf("skipped V-cycle leaked stats: %+v", st)
	}
	for _, ev := range events {
		if ev.Phase == PhaseCoarsen || ev.Phase == PhaseUncoarsen {
			t.Fatalf("skipped V-cycle emitted %+v", ev)
		}
	}
	if gc, _ := e.ml.Coarsest(); e.ml.Depth() != depth || gc != coarsest || gc.Epoch() != epoch {
		t.Fatalf("skipped call touched the hierarchy: depth %d→%d, coarsest epoch %d→%d",
			depth, e.ml.Depth(), epoch, gc.Epoch())
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

func TestMultilevelDeferredRepairCatchesUp(t *testing.T) {
	// Skipped calls leave the hierarchy behind; the next call that runs
	// the V-cycle repairs the whole window it missed — journaled edits and
	// every group refinement split meanwhile — or, when the bounded graph
	// journal no longer reaches back that far, rebuilds.
	ctx := context.Background()
	for _, tc := range []struct {
		name         string
		calls, edits int
		wantRebuilt  bool
	}{
		{"journal covers the window", 50, 6, false},
		{"window past the journal", 10, 2000, true}, // ≈ 2.7·10⁴ journal entries > 2¹⁴
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, a := grownGrid(32, 32, 4, 40, 31)
			e := New(g, Options{Refine: true, Multilevel: MultilevelOptions{Enabled: true, CoarsenTo: 16}})
			defer e.Close()
			if _, err := e.Repartition(ctx, a); err != nil {
				t.Fatal(err)
			}
			consulted := g.Epoch()
			rng := rand.New(rand.NewSource(32))
			refined := 0
			for c := 0; c < tc.calls; c++ {
				for k := 0; k < tc.edits; k++ {
					sizePreservingEdit(g, a, rng)
				}
				st, err := e.Repartition(ctx, a)
				if err != nil {
					t.Fatal(err)
				}
				if !st.VCycleSkipped {
					t.Fatalf("call %d: size-preserving edits ran the V-cycle", c)
				}
				refined += st.RefineMoved
			}
			if refined == 0 {
				t.Fatal("refinement moved nothing during the deferred window")
			}
			attachVertices(g, a, rng, 0, 24)
			if _, exact := g.TouchedSince(consulted, nil); exact == tc.wantRebuilt {
				t.Fatalf("journal covers the deferred window: %v", exact)
			}
			st, err := e.Repartition(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			if st.VCycleSkipped || len(st.Levels) == 0 {
				t.Fatalf("growth burst: skipped=%v levels=%d", st.VCycleSkipped, len(st.Levels))
			}
			if st.Levels[0].Rebuilt != tc.wantRebuilt || st.HierarchyRepaired == tc.wantRebuilt {
				t.Fatalf("level 0 rebuilt=%v repaired=%v, want rebuilt=%v",
					st.Levels[0].Rebuilt, st.HierarchyRepaired, tc.wantRebuilt)
			}
			requireExactBalance(t, g, a)
			requireHierarchy(t, e, a)
		})
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

func TestMultilevelDeterministicAcrossWorkers(t *testing.T) {
	// The V-cycle is a sequential kernel inside a parallel engine: the
	// full cold+warm history must be bit-identical at every worker count.
	run := func(procs int) []int32 {
		g, a := grownGrid(24, 24, 4, 40, 5)
		e := New(g, Options{
			Refine:      true,
			Parallelism: procs,
			Multilevel:  MultilevelOptions{Enabled: true, Seed: 11},
		})
		defer e.Close()
		if _, err := e.Repartition(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		for k := 0; k < 12; k++ {
			randomEdit(g, a, rng)
		}
		if _, err := e.Repartition(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		return append([]int32(nil), a.Part...)
	}
	p1 := run(1)
	for _, procs := range []int{2, 4} {
		pn := run(procs)
		if len(p1) != len(pn) {
			t.Fatalf("assignment length differs at %d workers", procs)
		}
		for v := range p1 {
			if p1[v] != pn[v] {
				t.Fatalf("assignment diverges at vertex %d with %d workers: %d != %d",
					v, procs, p1[v], pn[v])
			}
		}
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
		st.HierarchyRepaired || st.SpectralInit || st.CoarseMoved != 0 || st.VCycleRefined != 0 {
		t.Fatalf("flat pipeline leaked V-cycle stats: %+v", st)
	}
	if e.ml != nil {
		t.Fatal("flat pipeline created a hierarchy")
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
