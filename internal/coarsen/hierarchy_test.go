package coarsen

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// buildHierarchy creates a hierarchy over g+a with small thresholds so
// even test-sized graphs get several levels.
func buildHierarchy(t *testing.T, g *graph.Graph, a *partition.Assignment, opt HierarchyOptions) *Hierarchy {
	t.Helper()
	h := NewHierarchy(g, opt)
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(a); err != nil {
		t.Fatalf("fresh hierarchy invalid: %v", err)
	}
	return h
}

func TestHierarchyBuildInvariants(t *testing.T) {
	g, a := striped(16, 32, 4)
	h := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16})
	if h.Depth() < 2 {
		t.Fatalf("expected a multi-level hierarchy on 512 vertices, got depth %d", h.Depth())
	}
	// Per-level cardinality conservation: total coarse weight == live fine
	// count, at every level.
	for l, st := range h.Levels() {
		gc := h.levels[l].gc
		if math.Abs(gc.TotalVertexWeight()-float64(g.NumVertices())) > 1e-9 {
			t.Fatalf("level %d: total weight %g != %d fine vertices",
				l, gc.TotalVertexWeight(), g.NumVertices())
		}
		if !st.Rebuilt {
			t.Fatalf("level %d of a fresh hierarchy not marked Rebuilt", l)
		}
		if st.Vertices != gc.NumVertices() {
			t.Fatalf("level %d: stats say %d vertices, graph has %d", l, st.Vertices, gc.NumVertices())
		}
	}
}

func TestHierarchyRepairEquivalence(t *testing.T) {
	// Journal repair after edits must yield a hierarchy that passes the
	// same structural oracle as a from-scratch rebuild, and the repaired
	// level graphs must match the rebuilt ones on vertex counts and
	// per-partition weights (exact: all cardinality weights are integers).
	g, a := striped(16, 32, 4)
	h := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16})

	rng := rand.New(rand.NewSource(9))
	prev := g.Vertices()
	for k := 0; k < 25; k++ {
		v := g.AddVertex(1)
		u := prev[rng.Intn(len(prev))]
		_ = g.AddEdge(v, u, 1)
		a.Part = append(a.Part, a.Part[u])
		prev = append(prev, v)
	}
	for k := 0; k < 5; k++ {
		_ = g.RemoveVertex(prev[rng.Intn(256)])
	}
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			a.Part[v] = partition.Unassigned
		}
	}

	repaired, err := h.Update(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("small edit batch forced a rebuild instead of a journal repair")
	}
	if err := h.Check(a); err != nil {
		t.Fatalf("repaired hierarchy invalid: %v", err)
	}

	// Reference: recoarsen the same graph+assignment from scratch.
	// Depths may differ (repair grows level graphs, so the repaired
	// hierarchy can run deeper before hitting the threshold); the
	// invariants must agree level-by-level over the shared prefix.
	ref := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16})
	depth := h.Depth()
	if ref.Depth() < depth {
		depth = ref.Depth()
	}
	if depth == 0 {
		t.Fatal("no shared levels to compare")
	}
	for l := 0; l < depth; l++ {
		hg, rg := h.levels[l].gc, ref.levels[l].gc
		if math.Abs(hg.TotalVertexWeight()-rg.TotalVertexWeight()) > 1e-9 {
			t.Fatalf("level %d: repaired weight %g != rebuilt %g",
				l, hg.TotalVertexWeight(), rg.TotalVertexWeight())
		}
		hw := h.levels[l].ca.Weights(hg)
		rw := ref.levels[l].ca.Weights(rg)
		for q := range hw {
			if math.Abs(hw[q]-rw[q]) > 1e-9 {
				t.Fatalf("level %d partition %d: repaired weight %g != rebuilt %g", l, q, hw[q], rw[q])
			}
		}
	}
}

func TestHierarchyRepairAfterPartitionDrift(t *testing.T) {
	// Moving fine vertices across partitions (as refinement does) makes
	// groups impure; the next Update must dissolve exactly those and stay
	// valid — with no graph edits at all.
	g, a := striped(16, 32, 4)
	h := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16})
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 30; k++ {
		v := graph.Vertex(rng.Intn(g.Order()))
		a.Part[v] = int32((int(a.Part[v]) + 1) % a.P)
	}
	repaired, err := h.Update(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("pure partition drift forced a rebuild")
	}
	if err := h.Check(a); err != nil {
		t.Fatalf("hierarchy invalid after drift repair: %v", err)
	}
}

func TestHierarchyDeterministic(t *testing.T) {
	// Two identical build+edit+repair histories must produce bitwise
	// identical coarse graphs and assignments.
	run := func() *Hierarchy {
		g, a := striped(16, 32, 4)
		h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16})
		if _, err := h.Update(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		prev := g.Vertices()
		for k := 0; k < 20; k++ {
			v := g.AddVertex(1)
			u := prev[rng.Intn(len(prev))]
			_ = g.AddEdge(v, u, 1)
			a.Part = append(a.Part, a.Part[u])
		}
		if _, err := h.Update(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1, h2 := run(), run()
	if h1.Depth() != h2.Depth() {
		t.Fatalf("depth %d != %d", h1.Depth(), h2.Depth())
	}
	for l := 0; l < h1.Depth(); l++ {
		g1, g2 := h1.levels[l].gc, h2.levels[l].gc
		if g1.Order() != g2.Order() {
			t.Fatalf("level %d order %d != %d", l, g1.Order(), g2.Order())
		}
		for v := 0; v < g1.Order(); v++ {
			vv := graph.Vertex(v)
			if g1.Alive(vv) != g2.Alive(vv) {
				t.Fatalf("level %d vertex %d liveness differs", l, v)
			}
			if !g1.Alive(vv) {
				continue
			}
			if g1.VertexWeight(vv) != g2.VertexWeight(vv) {
				t.Fatalf("level %d vertex %d weight differs", l, v)
			}
			n1, n2 := g1.Neighbors(vv), g2.Neighbors(vv)
			w1, w2 := g1.EdgeWeights(vv), g2.EdgeWeights(vv)
			if len(n1) != len(n2) {
				t.Fatalf("level %d vertex %d degree %d != %d", l, v, len(n1), len(n2))
			}
			for i := range n1 {
				if n1[i] != n2[i] || w1[i] != w2[i] {
					t.Fatalf("level %d vertex %d adjacency diverges at %d", l, v, i)
				}
			}
			if h1.levels[l].ca.Part[v] != h2.levels[l].ca.Part[v] {
				t.Fatalf("level %d coarse assignment differs at %d", l, v)
			}
		}
	}
}

func TestHierarchySolveAndUncoarsen(t *testing.T) {
	// Full V-cycle on a flood-filled (degenerate) assignment: spectral
	// coarsest init, then uncoarsening must produce a valid assignment
	// whose imbalance is within cluster slack and whose cut is sane.
	g := graph.Grid(24, 24)
	a := partition.New(g.Order(), 4)
	for v := range a.Part {
		a.Part[v] = 0 // everything in partition 0: degenerate
	}
	h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16})
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	moved, spectralInit, err := h.SolveCoarsest(context.Background(), lp.Network{})
	if err != nil {
		t.Fatal(err)
	}
	if !spectralInit {
		t.Fatal("degenerate assignment did not take the spectral path")
	}
	if moved == 0 {
		t.Fatal("coarsest solve moved nothing off the flood fill")
	}
	if _, err := h.Uncoarsen(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	slack := 0.0
	for _, lv := range h.levels {
		for v := 0; v < lv.gc.Order(); v++ {
			if lv.gc.Alive(graph.Vertex(v)) && lv.gc.VertexWeight(graph.Vertex(v)) > slack {
				slack = lv.gc.VertexWeight(graph.Vertex(v))
			}
		}
	}
	for q := range sizes {
		if dev := math.Abs(float64(sizes[q] - targets[q])); dev > slack {
			t.Fatalf("partition %d size %d deviates %g from target %d (slack %g)",
				q, sizes[q], dev, targets[q], slack)
		}
	}
	// On a grid, a sane 4-way cut is well under the worst-case stripe
	// bound; this is a sanity check, not a quality contract (that lives
	// in the engine tests, against the flat pipeline).
	cut := partition.Cut(g, a).TotalWeight
	if cut <= 0 || cut > float64(3*24*4) {
		t.Fatalf("implausible V-cycle cut %g on a 24x24 grid", cut)
	}
	// Warm path: the V-cycle's own refinement made some groups impure;
	// Update must repair, not rebuild.
	repaired, err := h.Update(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("post-uncoarsen Update rebuilt instead of repairing")
	}
	if err := h.Check(a); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyCoarsestBalanceWarm(t *testing.T) {
	// Non-degenerate warm path: an imbalanced striped grid must be
	// rebalanced by the weighted coarse LP, not the spectral solver.
	g, a := striped(16, 32, 4)
	rng := rand.New(rand.NewSource(5))
	prev := []graph.Vertex{graph.Vertex(31)}
	for k := 0; k < 120; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		a.Part = append(a.Part, 3)
		prev = append(prev, v)
	}
	h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16})
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	before := maxDev(a.Weights(g), partition.Targets(g.NumVertices(), a.P))
	moved, spectralInit, err := h.SolveCoarsest(context.Background(), lp.Network{})
	if err != nil {
		t.Fatal(err)
	}
	if spectralInit {
		t.Fatal("warm non-degenerate solve took the spectral path")
	}
	if moved <= 0 {
		t.Fatal("coarsest balance moved nothing on an imbalanced hierarchy")
	}
	if _, err := h.Uncoarsen(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	after := maxDev(a.Weights(g), partition.Targets(g.NumVertices(), a.P))
	if after >= before {
		t.Fatalf("V-cycle did not shrink imbalance: %g -> %g", before, after)
	}
	// The coarse moves and refinement made groups impure; Check is only
	// valid after the next Update repairs them.
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(a); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyRepairWaveBeyondJournalWindow(t *testing.T) {
	// Regression: a warm repair whose own mutations dwarf the graph
	// journal's bounded window must still repair the levels above it.
	// Upper levels never consult their fine graph's journal — repair at
	// level l records its exact mutation wave and Update hands it to
	// level l+1 — so a drift that dissolves every level-0 group (tens of
	// thousands of would-be journal entries here) keeps the whole stack
	// on the repair path. Before wave propagation the overflowing coarse
	// journals forced every upper level to rebuild.
	g, a := striped(96, 96, 4)
	h := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16})
	if h.Depth() < 3 {
		t.Fatalf("need ≥3 levels to observe wave propagation, got depth %d", h.Depth())
	}
	// Flip exactly one member of every level-0 pair: each group turns
	// impure, so the purity sweep dissolves all of them.
	lv0 := h.levels[0]
	for v := 0; v < g.Order(); v++ {
		if u := lv0.match[v]; u > graph.Vertex(v) {
			a.Part[v] = int32((int(a.Part[v]) + 1) % a.P)
		}
	}
	origDepth := h.Depth()
	repaired, err := h.Update(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("oversized repair wave forced a rebuild instead of propagating")
	}
	// Levels appended below the repaired stack are built fresh by
	// definition; only pre-existing levels must have stayed on the
	// repair path.
	for l, st := range h.Levels() {
		if l < origDepth && st.Rebuilt {
			t.Fatalf("level %d rebuilt under the repair wave", l)
		}
	}
	if h.Depth() > 1 && h.lstats[1].Dissolved == 0 {
		t.Fatal("no repair wave reached level 1")
	}
	if err := h.Check(a); err != nil {
		t.Fatalf("hierarchy invalid after wave repair: %v", err)
	}
}

func TestHierarchyJournalOverflowRebuilds(t *testing.T) {
	// Blowing past the fine graph's journal capacity makes TouchedSince
	// inexact; Update must fall back to a rebuild and stay valid.
	g, a := striped(16, 32, 4)
	h := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16})
	prev := g.Vertices()
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 1<<15; k++ { // > maxJournal edits
		u := prev[rng.Intn(len(prev))]
		v := g.AddVertex(1)
		_ = g.AddEdge(v, u, 1)
		a.Part = append(a.Part, a.Part[u])
	}
	repaired, err := h.Update(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Fatal("journal overflow still reported a repair")
	}
	if err := h.Check(a); err != nil {
		t.Fatalf("rebuilt hierarchy invalid: %v", err)
	}
}

func TestHierarchyPartitionCountChangeRebuilds(t *testing.T) {
	g, a := striped(16, 32, 4)
	h := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16})
	// Re-stripe the same graph at p=2.
	a2 := partition.New(g.Order(), 2)
	for r := 0; r < 16; r++ {
		for c := 0; c < 32; c++ {
			a2.Part[r*32+c] = int32(c / 16)
		}
	}
	repaired, err := h.Update(context.Background(), a2)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Fatal("partition-count change reported a repair")
	}
	if err := h.Check(a2); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyHubAggregation(t *testing.T) {
	// Pins the coarse-arc aggregation where it is hardest: on a power-law
	// graph a hub's group gathers hundreds of arcs that collapse onto far
	// fewer coarse endpoints, and a repair wires new groups to old ones
	// and to each other. The oracle recomputes every aggregated weight
	// after the build and after each repair round (moves that split
	// groups, edge flips), and the sharded aggregation must reproduce the
	// inline one slot for slot — adjacency order and weights included.
	ctx := context.Background()
	run := func(procs int) *Hierarchy {
		g, err := graph.PowerLaw(2000, 4, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		a := partition.New(g.Order(), 4)
		for v := range a.Part {
			a.Part[v] = int32(v % 4)
		}
		h := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16, Procs: procs})
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 20; round++ {
			for k := 0; k < 25; k++ {
				a.Part[rng.Intn(g.Order())] = int32(rng.Intn(a.P))
			}
			for k := 0; k < 10; k++ {
				u, v := graph.Vertex(rng.Intn(g.Order())), graph.Vertex(rng.Intn(g.Order()))
				if !g.AddEdgeIfAbsent(u, v, 1) && u != v {
					_ = g.RemoveEdge(u, v)
				}
			}
			if _, err := h.Update(ctx, a); err != nil {
				t.Fatal(err)
			}
			if err := h.Check(a); err != nil {
				t.Fatalf("procs %d round %d: %v", procs, round, err)
			}
		}
		return h
	}
	requireHierarchiesEqual(t, run(1), run(4))
}
