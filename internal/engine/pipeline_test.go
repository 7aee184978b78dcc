package engine

// The one-shot pipeline's behaviour: phase 1 placement, exact balance on
// grown and shrunk graphs, refinement never worsening the cut, the spill
// where the balance LP is infeasible and the paper's LP-size claim — each a
// fresh engine per call, like igp.Repartition.

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// burstGrid builds a rows×cols grid striped into p columns-wise partitions,
// then grows it by attaching extra vertices in a localized blob on one
// side — the paper's incremental scenario in miniature.
func burstGrid(rows, cols, p, extra int, rng *rand.Rand) (*graph.Graph, *partition.Assignment) {
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
	// Attach new vertices to random vertices in the last two columns.
	attach := make([]graph.Vertex, 0, 2*rows)
	for r := 0; r < rows; r++ {
		attach = append(attach, graph.Vertex(r*cols+cols-1), graph.Vertex(r*cols+cols-2))
	}
	prev := attach
	for k := 0; k < extra; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		if rng.Intn(2) == 0 && k > 0 {
			u := graph.Vertex(int(v) - 1 - rng.Intn(min(k, 3)))
			if g.Alive(u) && !g.HasEdge(v, u) && u != v {
				_ = g.AddEdge(v, u, 1)
			}
		}
		prev = append(prev, v)
	}
	return g, a
}

func TestAssignNearest(t *testing.T) {
	// Path 0-1-2-3-4 with 0,1 in partition 0 and 3,4 in partition 1;
	// vertex 2 is new and adjacent to both: gets one of them (distance 1).
	g := graph.Path(5)
	a := partition.New(5, 2)
	a.Part = []int32{0, 0, partition.Unassigned, 1, 1}
	n, fb, err := Assign(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || fb != 0 {
		t.Fatalf("assigned %d clusters %d, want 1/0", n, fb)
	}
	if a.Part[2] != 0 && a.Part[2] != 1 {
		t.Fatalf("vertex 2 assigned %d", a.Part[2])
	}
}

func TestAssignDisconnectedCluster(t *testing.T) {
	// Two new vertices forming their own component: must go, as one
	// cluster, to the smaller partition.
	g := graph.Path(4) // 0-1-2-3 assigned
	v1 := g.AddVertex(1)
	v2 := g.AddVertex(1)
	_ = g.AddEdge(v1, v2, 1)
	a := partition.New(4, 2)
	a.Part = []int32{0, 0, 0, 1} // partition 1 is smaller
	n, fb, err := Assign(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || fb != 1 {
		t.Fatalf("assigned %d clusters %d, want 2/1", n, fb)
	}
	if a.Part[v1] != 1 || a.Part[v2] != 1 {
		t.Fatalf("cluster went to %d/%d, want partition 1", a.Part[v1], a.Part[v2])
	}
}

func TestAssignNoOldAssignment(t *testing.T) {
	g := graph.Path(3)
	a := partition.New(3, 2)
	if _, _, err := Assign(g, a); err == nil {
		t.Fatal("assign with no old vertices must error")
	}
}

func TestAssignClearsDeadVertices(t *testing.T) {
	g := graph.Path(4)
	a := partition.New(4, 2)
	a.Part = []int32{0, 0, 1, 1}
	_ = g.RemoveVertex(3)
	if _, _, err := Assign(g, a); err != nil {
		t.Fatal(err)
	}
	if a.Part[3] != partition.Unassigned {
		t.Fatal("dead vertex should be unassigned after Assign")
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestRepartitionBalancesGrownGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, a := burstGrid(8, 16, 4, 24, rng)
	st, err := New(g, Options{}).Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), 4)
	for q := range sizes {
		if sizes[q] != targets[q] {
			t.Fatalf("sizes %v != targets %v", sizes, targets)
		}
	}
	if st.NewAssigned != 24 {
		t.Fatalf("assigned %d, want 24", st.NewAssigned)
	}
	if st.Stages == 0 {
		t.Fatal("expected at least one balancing stage")
	}
}

func TestRepartitionWithRefinementImprovesCut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gPlain, aPlain := burstGrid(8, 16, 4, 24, rng)
	rng2 := rand.New(rand.NewSource(5))
	gRef, aRef := burstGrid(8, 16, 4, 24, rng2)

	if _, err := New(gPlain, Options{}).Repartition(context.Background(), aPlain); err != nil {
		t.Fatal(err)
	}
	stRef, err := New(gRef, Options{Refine: true}).Repartition(context.Background(), aRef)
	if err != nil {
		t.Fatal(err)
	}
	cutPlain := partition.Cut(gPlain, aPlain).TotalWeight
	cutRef := partition.Cut(gRef, aRef).TotalWeight
	if cutRef > cutPlain {
		t.Fatalf("IGPR cut %g worse than IGP cut %g", cutRef, cutPlain)
	}
	if stRef.RefineStop == "" {
		t.Fatal("refine stats missing")
	}
	// Refinement must preserve the balance achieved in phase 3.
	sizes := aRef.Sizes(gRef)
	targets := partition.Targets(gRef.NumVertices(), 4)
	for q := range sizes {
		if sizes[q] != targets[q] {
			t.Fatalf("refinement broke balance: %v vs %v", sizes, targets)
		}
	}
}

// paperFigure2Graph reconstructs the flavor of the paper's Figs 2–9 worked
// example: 4 partitions, a localized burst of 28 new vertices attached
// near partition 0's territory, severe imbalance solved by the LP.
func TestRepartitionLocalizedBurst(t *testing.T) {
	g := graph.Grid(8, 8) // 64 vertices, 4 partitions of 16 (quadrants)
	a := partition.New(g.Order(), 4)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			q := int32(0)
			if c >= 4 {
				q = 1
			}
			if r >= 4 {
				q += 2
			}
			a.Part[r*8+c] = q
		}
	}
	// 28 new vertices all attached to the top-left quadrant's corner area.
	rng := rand.New(rand.NewSource(9))
	prev := []graph.Vertex{0, 1, 8, 9}
	for k := 0; k < 28; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		prev = append(prev, v)
	}
	st, err := New(g, Options{Refine: true}).Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	if !partition.Balanced(sizes) {
		t.Fatalf("sizes %v not balanced", sizes)
	}
	// The burst lands entirely on partition 0 (surplus 21): a single ε=1
	// stage cannot be guaranteed; the driver must have used stages/ε and
	// still converged.
	if st.BalanceMoved == 0 {
		t.Fatal("expected vertex movement")
	}
}

func TestRepartitionInfeasibleFallsBack(t *testing.T) {
	// Two disconnected cliques, new vertices land on the small one but
	// partitions cannot exchange vertices: the balance LP is infeasible at
	// every ε, and the spill pass must balance exactly.
	g := graph.Complete(6)
	far := make([]graph.Vertex, 0)
	for i := 0; i < 3; i++ {
		far = append(far, g.AddVertex(1))
	}
	_ = g.AddEdge(far[0], far[1], 1)
	_ = g.AddEdge(far[1], far[2], 1)
	a := partition.New(g.Order(), 2)
	a.Part = []int32{0, 0, 0, 0, 0, 0, 1, 1, 1}
	// Grow the small side by 6 more vertices: total 9 vs 6, targets 8/7 —
	// impossible to fix without cross-component movement.
	prev := far
	for k := 0; k < 6; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[len(prev)-1], 1)
		prev = append(prev, v)
	}
	st, err := New(g, Options{}).Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spilled == 0 || st.BalanceMoved < st.Spilled {
		t.Fatalf("Spilled %d, BalanceMoved %d: want a spill, counted in BalanceMoved", st.Spilled, st.BalanceMoved)
	}
	if sizes, want := a.Sizes(g), partition.Targets(g.NumVertices(), 2); !slices.Equal(sizes, want) {
		t.Fatalf("sizes %v, want exactly %v", sizes, want)
	}
}

// TestSpillRules pins the spill's choices on a path 0–5 in partition 0
// (surplus 3), vertex 6 in partition 1 and vertices 7, 8 in partition 2,
// with one arc 5–8. Vertices 0 and 5 have the fewest arcs into partition
// 0 and go first, 0 before 5 by id; 0 has no arc into a short partition
// and takes the lowest-numbered one, 1; 5 has one into partition 2 and
// goes there, which fills it; 1 goes last, to partition 1, the only
// short partition left.
func TestSpillRules(t *testing.T) {
	g := graph.NewWithVertices(9)
	for v := graph.Vertex(0); v < 5; v++ {
		_ = g.AddEdge(v, v+1, 1)
	}
	_ = g.AddEdge(5, 8, 1)
	_ = g.AddEdge(7, 8, 1)
	a := &partition.Assignment{Part: []int32{0, 0, 0, 0, 0, 0, 1, 2, 2}, P: 3}
	e := New(g, Options{})
	if moved := e.spill(a, a.Sizes(g), partition.Targets(9, 3)); moved != 3 {
		t.Fatalf("moved %d, want the surplus, 3", moved)
	}
	if want := []int32{1, 1, 0, 0, 0, 2, 1, 2, 2}; !slices.Equal(a.Part, want) {
		t.Fatalf("assignment %v, want %v", a.Part, want)
	}
}

// pathAndOrphan builds a 6-vertex path at [0 0 0 1 1 1] beside an
// unassigned 8-vertex path at P = 2. Phase 1 puts the orphan path on
// partition 0 (11 against 3, targets 7), and the only way across is the
// first path: δ(0, 1) is 3, then 1, then 0.
func pathAndOrphan() (*graph.Graph, *partition.Assignment) {
	g := graph.NewWithVertices(14)
	for v := graph.Vertex(0); v < 13; v++ {
		if v != 5 {
			_ = g.AddEdge(v, v+1, 1)
		}
	}
	a := partition.New(14, 2)
	copy(a.Part, []int32{0, 0, 0, 1, 1, 1})
	return g, a
}

// TestNoStageMovesNothing: the third stage of pathAndOrphan would relax
// its surplus of 1 to 0 at ε = 2. Zero flow is the only optimum there,
// so the stage loop ends before that solve: two stages of 2 and 1
// vertices, then the spill moves the orphan path's end — under either
// solver and with refinement, which keeps that assignment.
func TestNoStageMovesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"network", Options{}},
		{"dense", Options{Solver: lp.Dense{}}},
		{"network refined", Options{Refine: true}},
	} {
		g, a := pathAndOrphan()
		st, err := New(g, tc.opt).Repartition(context.Background(), a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Stages != 2 || !slices.Equal(st.EpsilonUsed, []float64{2, 2}) || !slices.Equal(st.StageMoved, []int{2, 1}) || st.Spilled != 1 {
			t.Fatalf("%s: %d stages at ε %v moving %v, spilled %d; want 2 at [2 2] moving [2 1], spilled 1",
				tc.name, st.Stages, st.EpsilonUsed, st.StageMoved, st.Spilled)
		}
		if want := []int32{1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0}; !slices.Equal(a.Part, want) {
			t.Fatalf("%s: assignment %v, want %v", tc.name, a.Part, want)
		}
	}
}

func TestRepartitionAfterRSBOnGrownGraph(t *testing.T) {
	// End-to-end: RSB initial partition, grow the graph, IGP repartition;
	// quality should stay within 2x of re-running RSB from scratch.
	rng := rand.New(rand.NewSource(11))
	g := graph.Grid(12, 12)
	part, err := spectral.RSB(g, 8, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := &partition.Assignment{Part: part, P: 8}
	// Localized growth: 30 vertices near the center.
	center := graph.Vertex(6*12 + 6)
	prev := []graph.Vertex{center}
	for k := 0; k < 30; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		prev = append(prev, v)
	}
	if _, err := New(g, Options{Refine: true}).Repartition(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	igpCut := partition.Cut(g, a).TotalWeight

	fresh, err := spectral.RSB(g, 8, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rsbCut := partition.Cut(g, &partition.Assignment{Part: fresh, P: 8}).TotalWeight
	if igpCut > 2*rsbCut+8 {
		t.Fatalf("IGP cut %g too far above fresh RSB %g", igpCut, rsbCut)
	}
	if !partition.Balanced(a.Sizes(g)) {
		t.Fatalf("unbalanced: %v", a.Sizes(g))
	}
}

func TestStatsLPSizeIndependentOfGraphSize(t *testing.T) {
	// The paper's key scaling claim: LP size depends on P and partition
	// adjacency, not |V|.
	sizesOf := func(rows, cols int) (int, int) {
		rng := rand.New(rand.NewSource(1))
		g, a := burstGrid(rows, cols, 4, 16, rng)
		st, err := New(g, Options{}).Repartition(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		return st.LPVars, st.LPCons
	}
	v1, c1 := sizesOf(8, 16)
	v2, c2 := sizesOf(16, 32) // 4x the vertices
	if v2 > 2*v1+8 || c2 > 2*c1+8 {
		t.Fatalf("LP size grew with |V|: (%d,%d) → (%d,%d)", v1, c1, v2, c2)
	}
}

func TestPropertyRepartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 6 + rng.Intn(4)
		cols := 8 + rng.Intn(8)
		p := 2 + rng.Intn(3)
		extra := 5 + rng.Intn(20)
		g, a := burstGrid(rows, cols, p, extra, rng)
		st, err := New(g, Options{Refine: rng.Intn(2) == 0}).Repartition(context.Background(), a)
		if err != nil {
			return false
		}
		if a.Validate(g) != nil {
			return false
		}
		sizes := a.Sizes(g)
		targets := partition.Targets(g.NumVertices(), p)
		for q := range sizes {
			if sizes[q] != targets[q] {
				return false
			}
		}
		return st.NewAssigned == extra
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRepartitionSolverEquivalence(t *testing.T) {
	for _, s := range []lp.Solver{lp.Dense{}, lp.Network{}} {
		rng := rand.New(rand.NewSource(21))
		g, a := burstGrid(8, 16, 4, 20, rng)
		if _, err := New(g, Options{Solver: s, Refine: true}).Repartition(context.Background(), a); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !partition.Balanced(a.Sizes(g)) {
			t.Fatalf("%s: unbalanced", s.Name())
		}
	}
}

// meshFixture builds a small mesh graph with an RSB partition.
func meshFixture(t testing.TB, n, p int, seed int64) (*graph.Graph, *partition.Assignment) {
	gen, err := mesh.NewGenerator(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Mesh().Graph()
	part, err := spectral.RSB(g, p, spectral.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, &partition.Assignment{Part: part, P: p}
}

// deleteBall removes the k vertices nearest (by hops) to center.
func deleteBall(t testing.TB, g *graph.Graph, center graph.Vertex, k int) int {
	dist := g.BFS(center)
	type dv struct {
		d int32
		v graph.Vertex
	}
	var order []dv
	for _, v := range g.Vertices() {
		if dist[v] >= 0 {
			order = append(order, dv{dist[v], v})
		}
	}
	// Sort by (distance, id) — deterministic ball.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && (order[j].d < order[j-1].d || (order[j].d == order[j-1].d && order[j].v < order[j-1].v)); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	removed := 0
	for _, e := range order {
		if removed >= k {
			break
		}
		if err := g.RemoveVertex(e.v); err != nil {
			t.Fatal(err)
		}
		removed++
	}
	return removed
}

func TestRepartitionAfterVertexDeletions(t *testing.T) {
	g, a := meshFixture(t, 600, 8, 11)
	// Remove a localized ball of 60 vertices — one partition loses most
	// of its load (the paper's V₂ ⊂ V case).
	removed := deleteBall(t, g, 0, 60)
	if removed != 60 {
		t.Fatalf("removed %d, want 60", removed)
	}
	if !g.Connected() {
		t.Skip("deletion disconnected the mesh; covered by the orphan tests")
	}
	st, err := New(g, Options{Refine: true}).Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), 8)
	for q := range sizes {
		if sizes[q] != targets[q] {
			t.Fatalf("sizes %v != targets %v", sizes, targets)
		}
	}
	if st.BalanceMoved == 0 {
		t.Fatal("deletions must trigger rebalancing movement")
	}
}

func TestRepartitionAfterEdgeDeletions(t *testing.T) {
	g, a := meshFixture(t, 400, 4, 13)
	// Remove every third edge of vertex 0's neighborhood region without
	// disconnecting (keep ≥ 2 incident edges per touched vertex).
	removedEdges := 0
	for _, v := range append([]graph.Vertex(nil), g.Neighbors(0)...) {
		if g.Degree(v) > 3 && g.Degree(0) > 3 {
			if err := g.RemoveEdge(0, v); err != nil {
				t.Fatal(err)
			}
			removedEdges++
		}
	}
	if removedEdges == 0 {
		t.Skip("degree structure left nothing removable")
	}
	if !g.Connected() {
		t.Skip("edge removal disconnected the test mesh")
	}
	if _, err := New(g, Options{Refine: true}).Repartition(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if !partition.Balanced(a.Sizes(g)) {
		t.Fatalf("unbalanced after edge deletions: %v", a.Sizes(g))
	}
}

func TestRepartitionMixedAddAndDelete(t *testing.T) {
	g, a := meshFixture(t, 500, 8, 17)
	// The paper's full incremental model: V' = V ∪ V₁ − V₂.
	removed := deleteBall(t, g, 100, 30)
	if !g.Connected() {
		t.Skip("deletion disconnected the mesh")
	}
	rng := rand.New(rand.NewSource(17))
	alive := g.Vertices()
	prev := []graph.Vertex{alive[len(alive)-1]}
	for k := 0; k < 45; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		prev = append(prev, v)
	}
	st, err := New(g, Options{Refine: true}).Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewAssigned != 45 {
		t.Fatalf("assigned %d, want 45", st.NewAssigned)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), 8)
	for q := range sizes {
		if sizes[q] != targets[q] {
			t.Fatalf("sizes %v != targets %v (removed %d)", sizes, targets, removed)
		}
	}
}

func TestPropertyRepartitionSurvivesRandomEdits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen, err := mesh.NewGenerator(200+rng.Intn(200), seed)
		if err != nil {
			return false
		}
		g := gen.Mesh().Graph()
		p := 2 + rng.Intn(4)
		part, err := spectral.RSB(g, p, spectral.Options{Seed: seed})
		if err != nil {
			return false
		}
		a := &partition.Assignment{Part: part, P: p}
		// Random edit script: deletions and additions interleaved.
		for op := 0; op < 30; op++ {
			switch rng.Intn(3) {
			case 0:
				vs := g.Vertices()
				v := vs[rng.Intn(len(vs))]
				if g.Degree(v) > 0 && g.NumVertices() > 50 {
					_ = g.RemoveVertex(v)
				}
			case 1:
				v := g.AddVertex(1)
				vs := g.Vertices()
				u := vs[rng.Intn(len(vs))]
				if u != v {
					_ = g.AddEdge(v, u, 1)
				}
			case 2:
				vs := g.Vertices()
				v := vs[rng.Intn(len(vs))]
				if d := g.Degree(v); d > 3 {
					_ = g.RemoveEdge(v, g.Neighbors(v)[rng.Intn(d)])
				}
			}
		}
		if _, err := New(g, Options{Refine: true}).Repartition(context.Background(), a); err != nil {
			return false
		}
		return a.Validate(g) == nil && partition.Balanced(a.Sizes(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
