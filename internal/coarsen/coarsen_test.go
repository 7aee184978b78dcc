package coarsen

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// striped returns a grid with vertical-stripe partitions.
func striped(rows, cols, p int) (*graph.Graph, *partition.Assignment) {
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
	return g, a
}

// firstLevel builds a hierarchy over g and a, checks it against
// Hierarchy.Check and returns its first level — one round of
// same-partition heavy-edge matching and its contraction, the step every
// level repeats, which deeper levels never change (nil when the matching
// stalled and no level was kept).
func firstLevel(t testing.TB, g *graph.Graph, a *partition.Assignment) *level {
	t.Helper()
	h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 2})
	if _, err := h.Update(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(a); err != nil {
		t.Fatal(err)
	}
	if h.Depth() == 0 {
		return nil
	}
	return h.levels[0]
}

func TestMatchWithinPartitions(t *testing.T) {
	g, a := striped(4, 8, 2)
	match := firstLevel(t, g, a).match
	for _, v := range g.Vertices() {
		u := match[v]
		if u == v {
			continue
		}
		if match[u] != v {
			t.Fatalf("matching not symmetric at %d/%d", v, u)
		}
		if a.Part[u] != a.Part[v] {
			t.Fatalf("cross-partition match %d(%d)↔%d(%d)", v, a.Part[v], u, a.Part[u])
		}
		if !g.HasEdge(v, u) {
			t.Fatalf("matched non-adjacent pair %d,%d", v, u)
		}
	}
}

func TestContractPreservesWeightAndPartition(t *testing.T) {
	g, a := striped(4, 8, 2)
	lv := firstLevel(t, g, a)
	gc := lv.gc
	if err := gc.Validate(); err != nil {
		t.Fatal(err)
	}
	if gc.TotalVertexWeight() != g.TotalVertexWeight() {
		t.Fatalf("weight %g != %g", gc.TotalVertexWeight(), g.TotalVertexWeight())
	}
	for _, v := range g.Vertices() {
		cv := lv.f2c[v]
		if cv < 0 || !gc.Alive(cv) {
			t.Fatalf("vertex %d maps to bad coarse vertex %d", v, cv)
		}
		if lv.ca.Part[cv] != a.Part[v] {
			t.Fatalf("partition mismatch after contraction at %d", v)
		}
	}
	// A good matching should shrink the graph substantially.
	if gc.NumVertices() > 3*g.NumVertices()/4 {
		t.Fatalf("poor coarsening: %d of %d vertices", gc.NumVertices(), g.NumVertices())
	}
}

func TestContractAggregatesEdgeWeights(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3, one partition: the heaviest edge
	// {1,2} matches, and the stranded 0 and 3 pair through their common
	// neighbour 2 (the two-hop pass).
	g := graph.NewWithVertices(4)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(0, 2, 2)
	_ = g.AddEdge(1, 2, 3)
	_ = g.AddEdge(2, 3, 1)
	a := &partition.Assignment{Part: []int32{0, 0, 0, 0}, P: 1}
	lv := firstLevel(t, g, a)
	if lv.match[1] != 2 || lv.match[0] != 3 || lv.gc.NumVertices() != 2 {
		t.Fatalf("match %v, %d coarse vertices; want {1,2} and {0,3}", lv.match, lv.gc.NumVertices())
	}
	// Edge {0,3}-{1,2} must aggregate 0-1, 0-2 and 2-3 to weight 4.
	w, ok := lv.gc.EdgeWeight(lv.f2c[0], lv.f2c[1])
	if !ok || w != 4 {
		t.Fatalf("aggregated weight = %g,%v; want 4,true", w, ok)
	}
}

func TestCoarseBalanceMovesWeight(t *testing.T) {
	// A striped grid grown on one side is imbalanced; the weighted coarse
	// balance pass must move whole clusters toward the light partitions.
	rng := rand.New(rand.NewSource(2))
	g, a := striped(8, 16, 4)
	prev := []graph.Vertex{graph.Vertex(15), graph.Vertex(31)}
	for k := 0; k < 40; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[rng.Intn(len(prev))], 1)
		prev = append(prev, v)
		a.Part = append(a.Part, 3) // grow on the rightmost stripe
	}
	lv := firstLevel(t, g, a)
	gc, ca := lv.gc, lv.ca
	targets := partition.Targets(g.NumVertices(), a.P)
	moved, err := CoarseBalance(context.Background(), gc, ca, targets, lp.Network{})
	if err != nil {
		t.Fatal(err)
	}
	if moved <= 0 {
		t.Fatal("coarse balance moved nothing on an imbalanced graph")
	}
	before := maxDev(a.Weights(g), targets)
	after := maxDev(ca.Weights(gc), targets)
	if after >= before {
		t.Fatalf("imbalance did not shrink: %g -> %g", before, after)
	}
}

func maxDev(w []float64, targets []int) float64 {
	d := 0.0
	for q := range w {
		if dev := math.Abs(w[q] - float64(targets[q])); dev > d {
			d = dev
		}
	}
	return d
}

func TestContractDeterministicAdjacency(t *testing.T) {
	// The coarse graphs must be identical across runs, including adjacency
	// order (it feeds float summations downstream).
	build := func() *Hierarchy {
		rng := rand.New(rand.NewSource(7))
		g, err := graph.RandomGNM(60, 150, rng)
		if err != nil {
			t.Fatal(err)
		}
		a := partition.New(g.Order(), 3)
		for v := 0; v < g.Order(); v++ {
			a.Part[v] = int32(v % 3)
		}
		return buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 2})
	}
	h := build()
	if h.Depth() == 0 {
		t.Fatal("no level to compare")
	}
	requireHierarchiesEqual(t, h, build())
}

func TestPropertyContractInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		m := n + rng.Intn(2*n)
		g, err := graph.RandomGNM(n, min(m, n*(n-1)/2), rng)
		if err != nil {
			return false
		}
		p := 2 + rng.Intn(3)
		a := partition.New(g.Order(), p)
		for v := 0; v < g.Order(); v++ {
			a.Part[v] = int32(rng.Intn(p))
		}
		// firstLevel checks the mapping, purity, member cardinalities and
		// the exact coarse edge aggregates.
		lv := firstLevel(t, g, a)
		if lv == nil {
			return true // the matching stalled: nothing was contracted
		}
		gc, ca := lv.gc, lv.ca
		if gc.Validate() != nil {
			return false
		}
		// Per-partition weight conservation.
		fw := a.Weights(g)
		cw := ca.Weights(gc)
		for q := 0; q < p; q++ {
			if math.Abs(fw[q]-cw[q]) > 1e-9 {
				return false
			}
		}
		// Cut weight is preserved exactly: only same-partition pairs merge.
		fc := partition.Cut(g, a).TotalWeight
		cc := partition.Cut(gc, ca).TotalWeight
		return math.Abs(fc-cc) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
