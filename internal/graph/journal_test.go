package graph

import (
	"reflect"
	"testing"
)

func TestEpochAdvancesOnMutation(t *testing.T) {
	g := New(4)
	e0 := g.Epoch()
	v0 := g.AddVertex(1)
	v1 := g.AddVertex(1)
	if g.Epoch() == e0 {
		t.Fatal("AddVertex did not advance the epoch")
	}
	e1 := g.Epoch()
	if err := g.AddEdge(v0, v1, 1); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() == e1 {
		t.Fatal("AddEdge did not advance the epoch")
	}
}

func TestTouchedSince(t *testing.T) {
	g := NewWithVertices(4)
	_ = g.AddEdge(0, 1, 1)
	mark := g.Epoch()
	_ = g.AddEdge(2, 3, 1)
	touched, exact := g.TouchedSince(mark, nil)
	if !exact {
		t.Fatal("journal unexpectedly inexact")
	}
	if !reflect.DeepEqual(touched, []Vertex{2, 3}) {
		t.Fatalf("touched = %v, want [2 3]", touched)
	}
	// Removing a vertex journals its former neighbors too.
	mark = g.Epoch()
	if err := g.RemoveVertex(0); err != nil {
		t.Fatal(err)
	}
	touched, exact = g.TouchedSince(mark, nil)
	if !exact {
		t.Fatal("journal unexpectedly inexact")
	}
	want := map[Vertex]bool{0: true, 1: true}
	for _, v := range touched {
		if !want[v] {
			t.Fatalf("unexpected touched vertex %d", v)
		}
		delete(want, v)
	}
	if len(want) != 0 {
		t.Fatalf("missing touched vertices: %v", want)
	}
}

func TestTouchedSinceOverflow(t *testing.T) {
	g := NewWithVertices(2)
	mark := g.Epoch()
	for i := 0; i < maxJournal+10; i++ {
		g.SetVertexWeight(0, float64(i))
	}
	if _, exact := g.TouchedSince(mark, nil); exact {
		t.Fatal("journal claims exactness after overflow")
	}
	// A fresh mark taken now must be exact again.
	mark = g.Epoch()
	g.SetVertexWeight(1, 9)
	touched, exact := g.TouchedSince(mark, nil)
	if !exact || !reflect.DeepEqual(touched, []Vertex{1}) {
		t.Fatalf("post-overflow journal broken: touched=%v exact=%v", touched, exact)
	}
}

func TestCloneDropsJournal(t *testing.T) {
	g := NewWithVertices(3)
	_ = g.AddEdge(0, 1, 1)
	c := g.Clone()
	if _, exact := c.TouchedSince(0, nil); exact {
		t.Fatal("clone claims journal exactness it cannot have")
	}
	if c.Epoch() != g.Epoch() {
		t.Fatal("clone epoch differs from source")
	}
}

func TestAddEdgeUncheckedValidates(t *testing.T) {
	g := NewWithVertices(3)
	g.AddEdgeUnchecked(0, 1, 2)
	g.AddEdgeUnchecked(1, 2, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("unchecked bulk build fails validation: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 2 {
		t.Fatalf("edge weight = %g/%v, want 2/true", w, ok)
	}
}

func TestAddEdgeIfAbsent(t *testing.T) {
	g := NewWithVertices(3)
	if !g.AddEdgeIfAbsent(0, 1, 1) {
		t.Fatal("first insert reported absent=false")
	}
	if g.AddEdgeIfAbsent(0, 1, 1) || g.AddEdgeIfAbsent(1, 0, 1) {
		t.Fatal("duplicate insert reported true")
	}
	if g.AddEdgeIfAbsent(1, 1, 1) {
		t.Fatal("self-loop inserted")
	}
	if err := g.RemoveVertex(2); err != nil {
		t.Fatal(err)
	}
	if g.AddEdgeIfAbsent(0, 2, 1) {
		t.Fatal("edge to dead vertex inserted")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForEachVertex(t *testing.T) {
	g := NewWithVertices(5)
	_ = g.RemoveVertex(2)
	var got []Vertex
	g.ForEachVertex(func(v Vertex) { got = append(got, v) })
	if !reflect.DeepEqual(got, []Vertex{0, 1, 3, 4}) {
		t.Fatalf("ForEachVertex visited %v", got)
	}
	if !reflect.DeepEqual(got, g.Vertices()) {
		t.Fatal("ForEachVertex disagrees with Vertices")
	}
}

func TestRefreshCSRReuses(t *testing.T) {
	g := Grid(10, 10)
	c := g.ToCSR()
	_ = g.AddEdge(0, 11, 1)
	c2, _ := g.RefreshCSR(c)
	if c2 != c {
		t.Fatal("RefreshCSR returned a different snapshot")
	}
	if c.NumE != g.NumEdges() || c.NumV != g.NumVertices() {
		t.Fatal("refreshed snapshot out of date")
	}
	// The refreshed snapshot's logical content must match a fresh
	// rebuild's exactly (slack layout may differ — see csr_patch_test.go
	// for the byte-level patch guarantees).
	if err := sameSnapshot(g.ToCSR(), c); err != nil {
		t.Fatalf("refreshed snapshot differs from a fresh one: %v", err)
	}
	// Steady state: refreshing an unchanged graph allocates nothing.
	allocs := testing.AllocsPerRun(10, func() { g.RefreshCSR(c) })
	if allocs > 0 {
		t.Fatalf("RefreshCSR allocates %.1f objects/op on an unchanged graph", allocs)
	}
}
