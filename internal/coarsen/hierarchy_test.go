package coarsen

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/refine"
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

// requireLevelTable checks every filled slot of the level refiner's
// connectivity table against a fresh fill from its row in fg under part.
func requireLevelTable(t *testing.T, ctx string, h *Hierarchy, fg *graph.Graph, part []int32) {
	t.Helper()
	var fresh refine.Conn
	fresh.Reset(fg.Order())
	fresh.Reserve(h.p)
	for v := graph.Vertex(0); int(v) < fg.Order(); v++ {
		if h.conn.Stale(v) {
			continue
		}
		fresh.FillGraph(fg, part, v)
		got, want := map[int32]refine.ConnEntry{}, map[int32]refine.ConnEntry{}
		for _, x := range h.conn.Entries(v) {
			got[x.Part] = x
		}
		for _, x := range fresh.Entries(v) {
			want[x.Part] = x
		}
		if len(got) != len(h.conn.Entries(v)) || h.conn.In(v) != fresh.In(v) || !maps.Equal(got, want) {
			t.Fatalf("%s: vertex %d holds in %d and %v, its row fills in %d and %v",
				ctx, v, h.conn.In(v), h.conn.Entries(v), fresh.In(v), fresh.Entries(v))
		}
	}
}

// rowGain is the cut gain of moving v to partition to, from a scan of v's
// row: its arcs' weight into to less that into its own partition.
func rowGain(fg *graph.Graph, part []int32, v graph.Vertex, to int32) int32 {
	var gain int32
	ws := fg.EdgeWeights(v)
	for i, u := range fg.Neighbors(v) {
		switch part[u] {
		case to:
			gain += int32(ws[i])
		case part[v]:
			gain -= int32(ws[i])
		}
	}
	return gain
}

// hubGraph is a power-law graph with an extra hub joined to a fifth of
// the vertices, integer edge weights in [0, 5] (zero included) and a few
// removed vertices, under an assignment with every live vertex in
// partition 0 and the dead slots unassigned.
func hubGraph(t *testing.T, n, p int, seed int64) (*graph.Graph, *partition.Assignment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.PowerLaw(n, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	hub := g.AddVertex(1)
	for k := 0; k < n/5; k++ {
		g.AddEdgeIfAbsent(hub, graph.Vertex(rng.Intn(n)), 1)
	}
	for v := graph.Vertex(0); int(v) < g.Order(); v++ {
		for _, u := range slices.Clone(g.Neighbors(v)) {
			if v < u {
				_ = g.RemoveEdge(v, u)
				_ = g.AddEdge(v, u, float64(rng.Intn(6)))
			}
		}
	}
	a := partition.New(g.Order(), p)
	for v := range a.Part {
		a.Part[v] = 0
	}
	for k := 0; k < n/50; k++ {
		if v := graph.Vertex(rng.Intn(n)); g.Alive(v) {
			_ = g.RemoveVertex(v)
			a.Part[v] = partition.Unassigned
		}
	}
	return g, a
}

// TestLevelTableMatchesRows runs cold and warm V-cycles on graphs with
// hubs, zero-weight arcs and dead slots, and checks the level refiner's
// connectivity table against the rows: every popped gain equals a row
// scan's, and after every applied move every filled slot equals a fresh
// fill from its row.
func TestLevelTableMatchesRows(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := 2 + int(seed)%5
		g, a := hubGraph(t, 300+60*int(seed), p, seed)
		h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 24, Seed: seed})
		pops, moves := 0, 0
		h.onPop = func(fg *graph.Graph, part []int32, m refine.Move, gain int32) {
			pops++
			if want := rowGain(fg, part, m.V, m.To); gain != want {
				t.Fatalf("seed %d: popped %+v reads gain %d from the table, %d from its row", seed, m, gain, want)
			}
		}
		h.onMove = func(fg *graph.Graph, part []int32, v graph.Vertex) {
			moves++
			requireLevelTable(t, fmt.Sprintf("seed %d, move %d of vertex %d", seed, moves, v), h, fg, part)
		}
		rng := rand.New(rand.NewSource(seed))
		for call := 0; call < 2; call++ {
			if call == 1 { // a growth burst into one partition: the warm, non-degenerate path
				live := g.Vertices()
				for k := 0; k < g.NumVertices()/10; k++ {
					v := g.AddVertex(1)
					_ = g.AddEdge(v, live[rng.Intn(len(live))], float64(rng.Intn(6)))
					a.Part = append(a.Part, 1)
				}
			}
			if _, err := h.Update(context.Background(), a); err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.SolveCoarsest(context.Background(), lp.Network{}); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Uncoarsen(context.Background(), a); err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(g); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("seed %d: %d pops, %d moves checked", seed, pops, moves)
		if pops == 0 || moves == 0 {
			t.Fatalf("seed %d: %d pops and %d moves checked", seed, pops, moves)
		}
	}
}

// TestLevelArcsReadBounded is the level refiner's counted-work lock on a
// hub-heavy cold V-cycle: at every level the arcs it reads are at most
// the level's arcs (each slot is filled once) plus the movers' rows. A
// refiner that rescans a neighbour's row on every push reads a hub's row
// once per moving neighbour and exceeds it.
func TestLevelArcsReadBounded(t *testing.T) {
	g, err := graph.PowerLaw(3000, 4, rand.New(rand.NewSource(1994)))
	if err != nil {
		t.Fatal(err)
	}
	a := partition.New(g.Order(), 8)
	for v := range a.Part {
		a.Part[v] = 0
	}
	h := NewHierarchy(g, HierarchyOptions{Seed: 1994})
	movedArcs := map[*graph.Graph]int{}
	h.onMove = func(fg *graph.Graph, _ []int32, v graph.Vertex) { movedArcs[fg] += fg.Degree(v) }
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.SolveCoarsest(context.Background(), lp.Network{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Uncoarsen(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	read := 0
	for l, ls := range h.Levels() {
		fg := h.levelGraph(l)
		bound := 2*fg.NumEdges() + movedArcs[fg]
		t.Logf("level %d: %d vertices, %d arcs, %d moves over %d arcs, %d arcs read", l, fg.NumVertices(), 2*fg.NumEdges(), ls.Refined, movedArcs[fg], ls.ArcsRead)
		if ls.ArcsRead > bound {
			t.Fatalf("level %d read %d arcs, past its %d arcs plus %d of moved rows", l, ls.ArcsRead, 2*fg.NumEdges(), movedArcs[fg])
		}
		read += ls.ArcsRead
	}
	if h.Depth() < 2 || read == 0 {
		t.Fatalf("depth %d, %d arcs read: the lock measured nothing", h.Depth(), read)
	}
}
