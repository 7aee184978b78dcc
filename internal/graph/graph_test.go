package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddVertexAndEdge(t *testing.T) {
	g := New(4)
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	c := g.AddVertex(3)
	if g.NumVertices() != 3 || g.Order() != 3 {
		t.Fatalf("got %d vertices, order %d; want 3, 3", g.NumVertices(), g.Order())
	}
	if err := g.AddEdge(a, b, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c, 7); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("got %d edges, want 2", g.NumEdges())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("edge {a,b} should exist in both directions")
	}
	if w, ok := g.EdgeWeight(b, c); !ok || w != 7 {
		t.Fatalf("edge weight {b,c} = %g,%v; want 7,true", w, ok)
	}
	if g.VertexWeight(c) != 3 {
		t.Fatalf("vertex weight c = %g, want 3", g.VertexWeight(c))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewWithVertices(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop should be rejected")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range endpoint should be rejected")
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0, 2); err == nil {
		t.Error("duplicate edge should be rejected")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Complete(5)
	if err := g.RemoveEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 3) || g.HasEdge(3, 1) {
		t.Fatal("edge {1,3} should be gone")
	}
	if g.NumEdges() != 9 {
		t.Fatalf("got %d edges, want 9", g.NumEdges())
	}
	if err := g.RemoveEdge(1, 3); err == nil {
		t.Error("removing a missing edge should fail")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVertex(t *testing.T) {
	g := Complete(5)
	if err := g.RemoveVertex(2); err != nil {
		t.Fatal(err)
	}
	if g.Alive(2) {
		t.Fatal("vertex 2 should be dead")
	}
	if g.NumVertices() != 4 {
		t.Fatalf("got %d live vertices, want 4", g.NumVertices())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("got %d edges, want 6", g.NumEdges())
	}
	if err := g.RemoveVertex(2); err == nil {
		t.Error("double removal should fail")
	}
	for _, v := range g.Vertices() {
		if v == 2 {
			t.Fatal("Vertices() should not list dead vertex")
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveAdjacency(t *testing.T) {
	g := NewWithVertices(3)
	_ = g.AddEdge(0, 1, 2.5)
	epoch := g.Epoch()
	g.ReserveAdjacency(0, 8)
	g.ReserveAdjacency(2, 0) // nothing to grow
	if c, cw := cap(g.Neighbors(0)), cap(g.EdgeWeights(0)); c < 8 || cw < 8 {
		t.Fatalf("capacity %d/%d after reserving 8", c, cw)
	}
	if touched, exact := g.TouchedSince(epoch, nil); g.Epoch() != epoch || !exact || len(touched) != 0 {
		t.Fatalf("reservation journaled: epoch %d→%d, touched %v", epoch, g.Epoch(), touched)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 2.5 || g.Degree(0) != 1 {
		t.Fatalf("reservation changed the adjacency: degree %d, weight %g", g.Degree(0), w)
	}
	// Appends up to the reserved length stay in the reserved arrays.
	row := g.Neighbors(0)[:1]
	_ = g.AddEdge(0, 2, 1)
	if &g.Neighbors(0)[0] != &row[0] {
		t.Fatal("append within the reserved capacity reallocated")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	g := Complete(6)
	if err := g.RemoveVertex(0); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveVertex(3); err != nil {
		t.Fatal(err)
	}
	c, oldToNew, newToOld := g.Compact()
	if c.Order() != 4 || c.NumVertices() != 4 {
		t.Fatalf("compact order %d, want 4", c.Order())
	}
	if c.NumEdges() != 6 { // K4
		t.Fatalf("compact edges %d, want 6", c.NumEdges())
	}
	if oldToNew[0] != -1 || oldToNew[3] != -1 {
		t.Fatal("dead slots should map to -1")
	}
	for nu, old := range newToOld {
		if oldToNew[old] != Vertex(nu) {
			t.Fatalf("mapping mismatch at %d", nu)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Grid(3, 3)
	c := g.Clone()
	if err := c.RemoveVertex(4); err != nil {
		t.Fatal(err)
	}
	if !g.Alive(4) {
		t.Fatal("mutating clone must not affect original")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(4, 5)
	if g.NumVertices() != 20 {
		t.Fatalf("vertices = %d, want 20", g.NumVertices())
	}
	// edges: 4*(5-1) horizontal + (4-1)*5 vertical = 16+15 = 31
	if g.NumEdges() != 31 {
		t.Fatalf("edges = %d, want 31", g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("grid should be connected")
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 4)
	for _, v := range g.Vertices() {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBFSPath(t *testing.T) {
	g := Path(6)
	d := g.BFS(0)
	for i := 0; i < 6; i++ {
		if d[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := Path(7)
	d := g.MultiSourceBFS([]Vertex{0, 6})
	want := []int32{0, 1, 2, 3, 2, 1, 0}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], w)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := NewWithVertices(4)
	_ = g.AddEdge(0, 1, 1)
	d := g.BFS(0)
	if d[2] != Unreached || d[3] != Unreached {
		t.Fatal("isolated vertices should be Unreached")
	}
}

func TestNearestLabeled(t *testing.T) {
	// path 0-1-2-3-4; labels at ends.
	g := Path(5)
	label := []int32{10, -1, -1, -1, 20}
	win, dist := g.NearestLabeled(label)
	if win[1] != 10 || win[3] != 20 {
		t.Fatalf("winners = %v", win)
	}
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %d, want 2", dist[2])
	}
	// vertex 2 is equidistant; must get one of the two labels
	if win[2] != 10 && win[2] != 20 {
		t.Fatalf("winner[2] = %d, want 10 or 20", win[2])
	}
}

func TestComponents(t *testing.T) {
	g := NewWithVertices(6)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(2, 3, 1)
	_ = g.AddEdge(3, 4, 1)
	comp, n := g.Components()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[3] != comp[4] {
		t.Fatalf("component labels wrong: %v", comp)
	}
	if comp[5] == comp[0] || comp[5] == comp[2] {
		t.Fatalf("vertex 5 should be its own component: %v", comp)
	}
}

func TestEnsureConnected(t *testing.T) {
	g := NewWithVertices(6)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(2, 3, 1)
	added := EnsureConnected(g)
	if added != 3 { // components {0,1},{2,3},{4},{5} -> 3 joins
		t.Fatalf("added = %d, want 3", added)
	}
	if !g.Connected() {
		t.Fatal("graph should be connected now")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Grid(3, 3)
	sub, oldToNew, newToOld := g.InducedSubgraph([]Vertex{0, 1, 3, 4})
	if sub.NumVertices() != 4 {
		t.Fatalf("sub vertices = %d, want 4", sub.NumVertices())
	}
	if sub.NumEdges() != 4 { // the 2x2 block
		t.Fatalf("sub edges = %d, want 4", sub.NumEdges())
	}
	for nu, old := range newToOld {
		if oldToNew[old] != Vertex(nu) {
			t.Fatal("mapping mismatch")
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoPeripheral(t *testing.T) {
	g := Path(10)
	p := g.PseudoPeripheral(5)
	if p != 0 && p != 9 {
		t.Fatalf("pseudo-peripheral of path = %d, want an endpoint", p)
	}
}

func TestCSRMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := RandomGNM(50, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := g.ToCSR()
	if c.NumV != 50 || c.NumE != 120 {
		t.Fatalf("CSR counts %d,%d; want 50,120", c.NumV, c.NumE)
	}
	for v := 0; v < g.Order(); v++ {
		row := c.Row(Vertex(v))
		if len(row) != g.Degree(Vertex(v)) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i, u := range row {
			w, ok := g.EdgeWeight(Vertex(v), u)
			if !ok || w != c.RowWeights(Vertex(v))[i] {
				t.Fatalf("edge weight mismatch at %d->%d", v, u)
			}
		}
	}
}

func TestSortAdjacencyDeterminism(t *testing.T) {
	g := NewWithVertices(4)
	_ = g.AddEdge(0, 3, 1)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(0, 2, 1)
	g.SortAdjacency()
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("adjacency not sorted: %v", nbrs)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// randomMutatedGraph builds a graph by a random edit script, for property
// tests.
func randomMutatedGraph(seed int64, nOps int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewWithVertices(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if rng.Intn(2) == 0 {
				_ = g.AddEdge(Vertex(i), Vertex(j), 1)
			}
		}
	}
	for op := 0; op < nOps; op++ {
		switch rng.Intn(4) {
		case 0:
			g.AddVertex(1 + rng.Float64())
		case 1:
			if g.Order() >= 2 {
				u := Vertex(rng.Intn(g.Order()))
				v := Vertex(rng.Intn(g.Order()))
				if u != v && g.Alive(u) && g.Alive(v) && !g.HasEdge(u, v) {
					_ = g.AddEdge(u, v, rng.Float64()+0.1)
				}
			}
		case 2:
			vs := g.Vertices()
			if len(vs) > 0 {
				v := vs[rng.Intn(len(vs))]
				if g.Degree(v) > 0 {
					u := g.Neighbors(v)[rng.Intn(g.Degree(v))]
					_ = g.RemoveEdge(v, u)
				}
			}
		case 3:
			vs := g.Vertices()
			if len(vs) > 3 {
				_ = g.RemoveVertex(vs[rng.Intn(len(vs))])
			}
		}
	}
	return g
}

func TestPropertyMutationsPreserveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomMutatedGraph(seed, 60)
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Degree-sum identity.
		sum := 0
		for _, v := range g.Vertices() {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompactPreservesStructure(t *testing.T) {
	f := func(seed int64) bool {
		g := randomMutatedGraph(seed, 40)
		c, oldToNew, _ := g.Compact()
		if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
			return false
		}
		// Every live edge must map to an edge in the compacted graph.
		for _, v := range g.Vertices() {
			for _, u := range g.Neighbors(v) {
				if !c.HasEdge(oldToNew[v], oldToNew[u]) {
					return false
				}
			}
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBFSTriangleInequality(t *testing.T) {
	// BFS distances satisfy |d(u)-d(v)| <= 1 across every edge.
	f := func(seed int64) bool {
		g := randomMutatedGraph(seed, 30)
		vs := g.Vertices()
		if len(vs) == 0 {
			return true
		}
		d := g.BFS(vs[0])
		for _, v := range vs {
			if d[v] == Unreached {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if d[u] == Unreached {
					return false // neighbor of reached vertex must be reached
				}
				diff := d[u] - d[v]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGNMProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := RandomGNM(30, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 100 {
		t.Fatalf("edges = %d, want 100", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := RandomGNM(5, 100, rng); err == nil {
		t.Fatal("overfull G(n,m) should error")
	}
}

func TestRandomGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, pts := RandomGeometric(200, 0.12, rng)
	if len(pts) != 200 {
		t.Fatalf("points = %d, want 200", len(pts))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot-check: every edge respects the radius.
	for _, v := range g.Vertices() {
		for _, u := range g.Neighbors(v) {
			if Dist(pts[v], pts[u]) > 0.12+1e-12 {
				t.Fatalf("edge {%d,%d} exceeds radius", v, u)
			}
		}
	}
}

func TestTotalVertexWeight(t *testing.T) {
	g := New(3)
	g.AddVertex(1)
	g.AddVertex(2.5)
	v := g.AddVertex(4)
	if got := g.TotalVertexWeight(); got != 7.5 {
		t.Fatalf("total weight = %g, want 7.5", got)
	}
	_ = g.RemoveVertex(v)
	if got := g.TotalVertexWeight(); got != 3.5 {
		t.Fatalf("total weight after removal = %g, want 3.5", got)
	}
}

func TestPowerLawProperties(t *testing.T) {
	// Shape: n vertices, exactly m(m+1)/2 + (n-m-1)·m edges (clique seed
	// plus m per arrival), connected, heavy-tailed (the max degree far
	// exceeds the mean), and deterministic for a fixed seed.
	const n, m = 2000, 4
	g, err := PowerLaw(n, m, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != n {
		t.Fatalf("order %d, want %d", g.NumVertices(), n)
	}
	wantE := m*(m+1)/2 + (n-m-1)*m
	if g.NumEdges() != wantE {
		t.Fatalf("edges %d, want %d", g.NumEdges(), wantE)
	}
	if _, comps := g.Components(); comps != 1 {
		t.Fatalf("%d components, want 1", comps)
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(Vertex(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if mean := 2 * wantE / n; maxDeg < 6*mean {
		t.Fatalf("max degree %d not heavy-tailed (mean %d)", maxDeg, mean)
	}
	h, err := PowerLaw(n, m, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		gr, hr := g.Neighbors(Vertex(v)), h.Neighbors(Vertex(v))
		if len(gr) != len(hr) {
			t.Fatalf("vertex %d: degree differs between identical seeds", v)
		}
	}
	if _, err := PowerLaw(3, 4, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("PowerLaw(3, 4) accepted")
	}
}
