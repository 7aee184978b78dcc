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

func TestMatchWithinPartitions(t *testing.T) {
	g, a := striped(4, 8, 2)
	match := Match(g, a)
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
	match := Match(g, a)
	gc, fineToCoarse, ca := Contract(g, a, match)
	if err := gc.Validate(); err != nil {
		t.Fatal(err)
	}
	if gc.TotalVertexWeight() != g.TotalVertexWeight() {
		t.Fatalf("weight %g != %g", gc.TotalVertexWeight(), g.TotalVertexWeight())
	}
	for _, v := range g.Vertices() {
		cv := fineToCoarse[v]
		if cv < 0 || !gc.Alive(cv) {
			t.Fatalf("vertex %d maps to bad coarse vertex %d", v, cv)
		}
		if ca.Part[cv] != a.Part[v] {
			t.Fatalf("partition mismatch after contraction at %d", v)
		}
	}
	// A good matching should shrink the graph substantially.
	if gc.NumVertices() > 3*g.NumVertices()/4 {
		t.Fatalf("poor coarsening: %d of %d vertices", gc.NumVertices(), g.NumVertices())
	}
}

func TestContractAggregatesEdgeWeights(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3; match {0,1} (same partition).
	g := graph.NewWithVertices(4)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(0, 2, 2)
	_ = g.AddEdge(1, 2, 3)
	_ = g.AddEdge(2, 3, 1)
	a := &partition.Assignment{Part: []int32{0, 0, 0, 0}, P: 1}
	match := []graph.Vertex{1, 0, 2, 3}
	gc, f2c, _ := Contract(g, a, match)
	if gc.NumVertices() != 3 {
		t.Fatalf("coarse vertices = %d, want 3", gc.NumVertices())
	}
	// Edge {01}-{2} must aggregate to weight 5.
	w, ok := gc.EdgeWeight(f2c[0], f2c[2])
	if !ok || w != 5 {
		t.Fatalf("aggregated weight = %g,%v; want 5,true", w, ok)
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
	match := Match(g, a)
	gc, _, ca := Contract(g, a, match)
	targets := partition.Targets(g.NumVertices(), a.P)
	moved, err := CoarseBalance(context.Background(), gc, ca, targets, lp.Network{}, 8)
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
	// The coarse graph must be byte-identical across runs, including
	// adjacency order (it feeds float summations downstream).
	build := func() *graph.Graph {
		rng := rand.New(rand.NewSource(7))
		g, err := graph.RandomGNM(60, 150, rng)
		if err != nil {
			t.Fatal(err)
		}
		a := partition.New(g.Order(), 3)
		for v := 0; v < g.Order(); v++ {
			a.Part[v] = int32(v % 3)
		}
		gc, _, _ := Contract(g, a, Match(g, a))
		return gc
	}
	g1, g2 := build(), build()
	if g1.Order() != g2.Order() {
		t.Fatalf("order %d != %d", g1.Order(), g2.Order())
	}
	for v := 0; v < g1.Order(); v++ {
		n1, n2 := g1.Neighbors(graph.Vertex(v)), g2.Neighbors(graph.Vertex(v))
		if len(n1) != len(n2) {
			t.Fatalf("vertex %d degree %d != %d", v, len(n1), len(n2))
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("vertex %d adjacency diverges at %d: %d != %d", v, i, n1[i], n2[i])
			}
		}
	}
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
		match := Match(g, a)
		gc, f2c, ca := Contract(g, a, match)
		if gc.Validate() != nil {
			return false
		}
		// Weight conservation and per-partition weight conservation.
		if math.Abs(gc.TotalVertexWeight()-g.TotalVertexWeight()) > 1e-9 {
			return false
		}
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
		if math.Abs(fc-cc) > 1e-9 {
			return false
		}
		_ = f2c
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
