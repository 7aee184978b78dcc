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
		if st.Vertices != gc.NumVertices() {
			t.Fatalf("level %d: stats say %d vertices, graph has %d", l, st.Vertices, gc.NumVertices())
		}
	}
}

func TestHierarchyDeterministic(t *testing.T) {
	// Two identical build+edit+build histories must produce bitwise
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
	requireHierarchiesEqual(t, run(), run())
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
	// The V-cycle's own refinement made some groups impure; the next
	// Update builds over the refined assignment.
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
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
	// valid after the next Update builds over them.
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(a); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyHubAggregation(t *testing.T) {
	// Pins the coarse-arc aggregation where it is hardest: on a power-law
	// graph a hub's group gathers hundreds of arcs that collapse onto far
	// fewer coarse endpoints. hubHistory runs the oracle, which recomputes
	// every aggregated weight, after the first build and after each
	// round's; TestHierarchyLocked pins the same history's adjacency order
	// and weights slot for slot.
	hubHistory(t)
}

// hubHistory builds a hierarchy over a 2000-vertex power-law graph and
// runs 20 rounds of partition moves that split groups and edge flips,
// each followed by an Update, checking the hierarchy after every round.
func hubHistory(t *testing.T) (*Hierarchy, *partition.Assignment) {
	t.Helper()
	g, err := graph.PowerLaw(2000, 4, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	a := partition.New(g.Order(), 4)
	for v := range a.Part {
		a.Part[v] = int32(v % 4)
	}
	h := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16})
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
		if _, err := h.Update(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		if err := h.Check(a); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	return h, a
}
