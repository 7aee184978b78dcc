package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// sameSnapshot compares the logical content of two snapshots: every row,
// edge weight, liveness flag and count must agree. Slack layout is
// allowed to differ (a patched snapshot keeps its old slot headroom).
func sameSnapshot(want, got *CSR) error {
	if want.Order() != got.Order() {
		return fmt.Errorf("order %d vs %d", got.Order(), want.Order())
	}
	if want.NumV != got.NumV || want.NumE != got.NumE {
		return fmt.Errorf("counts (%d,%d) vs (%d,%d)", got.NumV, got.NumE, want.NumV, want.NumE)
	}
	for v := 0; v < want.Order(); v++ {
		if want.Live[v] != got.Live[v] {
			return fmt.Errorf("vertex %d: live %v vs %v", v, got.Live[v], want.Live[v])
		}
		wr, gr := want.Row(Vertex(v)), got.Row(Vertex(v))
		if len(wr) != len(gr) {
			return fmt.Errorf("vertex %d: degree %d vs %d", v, len(gr), len(wr))
		}
		ww, gw := want.RowWeights(Vertex(v)), got.RowWeights(Vertex(v))
		for i := range wr {
			if wr[i] != gr[i] || ww[i] != gw[i] {
				return fmt.Errorf("vertex %d arc %d: (%d,%g) vs (%d,%g)", v, i, gr[i], gw[i], wr[i], ww[i])
			}
		}
	}
	return nil
}

// checkSlots verifies the slotted-layout invariants: XAdj monotone,
// every row inside its slot, slack filled with the sentinel.
func checkSlots(t *testing.T, c *CSR) {
	t.Helper()
	n := c.Order()
	if len(c.End) != n {
		t.Fatalf("End has %d entries, want %d", len(c.End), n)
	}
	if int(c.XAdj[n]) != len(c.Adj) || len(c.Adj) != len(c.EW) {
		t.Fatalf("array lengths inconsistent: XAdj[n]=%d len(Adj)=%d len(EW)=%d", c.XAdj[n], len(c.Adj), len(c.EW))
	}
	for v := 0; v < n; v++ {
		if c.XAdj[v] > c.End[v] || c.End[v] > c.XAdj[v+1] {
			t.Fatalf("vertex %d: slot [%d,%d) does not contain row end %d", v, c.XAdj[v], c.XAdj[v+1], c.End[v])
		}
		for i := c.End[v]; i < c.XAdj[v+1]; i++ {
			if c.Adj[i] != slackSentinel || c.EW[i] != 0 {
				t.Fatalf("vertex %d: slack slot %d holds (%d,%g), want sentinel", v, i, c.Adj[i], c.EW[i])
			}
		}
	}
}

// randomGraphEdit applies one random structural edit (no assignment
// involved — this is the graph-layer mirror of the engine's randomEdit).
func randomGraphEdit(g *Graph, rng *rand.Rand) {
	switch rng.Intn(6) {
	case 0: // add a vertex hooked to an existing one
		v := g.AddVertex(1 + rng.Float64())
		for tries := 0; tries < 10; tries++ {
			u := Vertex(rng.Intn(g.Order()))
			if g.Alive(u) && u != v {
				_ = g.AddEdge(v, u, 1+rng.Float64())
				return
			}
		}
	case 1, 2: // add an edge
		u := Vertex(rng.Intn(g.Order()))
		v := Vertex(rng.Intn(g.Order()))
		g.AddEdgeIfAbsent(u, v, 1+rng.Float64())
	case 3: // remove an edge
		u := Vertex(rng.Intn(g.Order()))
		if g.Alive(u) && g.Degree(u) > 1 {
			v := g.Neighbors(u)[rng.Intn(g.Degree(u))]
			_ = g.RemoveEdge(u, v)
		}
	case 4: // remove a vertex
		v := Vertex(rng.Intn(g.Order()))
		if g.Alive(v) && g.NumVertices() > 8 {
			_ = g.RemoveVertex(v)
		}
	default: // reweight a vertex
		v := Vertex(rng.Intn(g.Order()))
		if g.Alive(v) {
			g.SetVertexWeight(v, 1+rng.Float64())
		}
	}
}

// TestRefreshCSRPatchEquivalence drives a long-lived snapshot through
// random edit bursts and checks it against a fresh rebuild after each.
func TestRefreshCSRPatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := Grid(12, 12)
	c := g.ToCSR()
	patchCount := 0
	for iter := 0; iter < 300; iter++ {
		for k := 0; k <= rng.Intn(4); k++ {
			randomGraphEdit(g, rng)
		}
		var patched bool
		c, patched = g.RefreshCSR(c)
		if patched {
			patchCount++
		}
		if err := sameSnapshot(g.buildCSR(nil), c); err != nil {
			t.Fatalf("iter %d (patched=%v): %v", iter, patched, err)
		}
		checkSlots(t, c)
	}
	if patchCount == 0 {
		t.Fatal("no refresh ever took the patch path; the test exercises nothing")
	}
}

// TestRefreshCSRSortAdjacency: reordering rows without journaling any
// vertex must not fool the patch into keeping stale rows.
func TestRefreshCSRSortAdjacency(t *testing.T) {
	g := NewWithVertices(4)
	_ = g.AddEdge(0, 3, 3)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(0, 2, 2)
	c := g.ToCSR()
	g.SortAdjacency()
	c, patched := g.RefreshCSR(c)
	if patched {
		t.Fatal("patch claimed to cover an unjournaled adjacency reorder")
	}
	if err := sameSnapshot(g.buildCSR(nil), c); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshCSRChurnFallback: touching more rows than the churn
// threshold must fall back to a full rebuild.
func TestRefreshCSRChurnFallback(t *testing.T) {
	g := Grid(20, 20)
	c := g.ToCSR()
	for v := 0; v < g.Order(); v++ {
		g.SetVertexWeight(Vertex(v), 2)
	}
	c, patched := g.RefreshCSR(c)
	if patched {
		t.Fatalf("patched through %d touches (churn cap %d)", g.Order(), csrMaxChurn(g.Order()))
	}
	if err := sameSnapshot(g.buildCSR(nil), c); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshCSRSlotOverflow: growing one vertex's degree past its slot
// headroom forces the compacting rebuild, and the rebuilt snapshot has
// fresh headroom.
func TestRefreshCSRSlotOverflow(t *testing.T) {
	g := NewWithVertices(40)
	for v := 1; v < 8; v++ {
		_ = g.AddEdge(0, Vertex(v), 1)
	}
	c := g.ToCSR()
	slot := c.XAdj[1] - c.XAdj[0]
	for v := 8; int32(v-1) <= slot; v++ {
		_ = g.AddEdge(0, Vertex(v), 1)
	}
	c, patched := g.RefreshCSR(c)
	if patched {
		t.Fatal("patched a row past its slot capacity")
	}
	if err := sameSnapshot(g.buildCSR(nil), c); err != nil {
		t.Fatal(err)
	}
	checkSlots(t, c)
}

// TestRefreshCSRForeignSnapshot: a snapshot built from another graph is
// always fully rebuilt, never patched against the wrong journal.
func TestRefreshCSRForeignSnapshot(t *testing.T) {
	g1 := Grid(5, 5)
	g2 := Grid(5, 5)
	c := g1.ToCSR()
	c, patched := g2.RefreshCSR(c)
	if patched {
		t.Fatal("patched a snapshot owned by another graph")
	}
	if err := sameSnapshot(g2.buildCSR(nil), c); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshCSRPatchedBytesDeterministic: two graphs driven through the
// same edit script must produce byte-identical snapshot arrays — slack
// included — when both refresh incrementally. (Determinism at this level
// is what lets the parallel engine fuzz compare snapshots wholesale.)
func TestRefreshCSRPatchedBytesDeterministic(t *testing.T) {
	build := func() (*Graph, *CSR) {
		g := Grid(8, 8)
		return g, g.ToCSR()
	}
	g1, c1 := build()
	g2, c2 := build()
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		randomGraphEdit(g1, r1)
		randomGraphEdit(g2, r2)
		c1, _ = g1.RefreshCSR(c1)
		c2, _ = g2.RefreshCSR(c2)
		if len(c1.Adj) != len(c2.Adj) {
			t.Fatalf("iter %d: Adj lengths diverge: %d vs %d", iter, len(c1.Adj), len(c2.Adj))
		}
		for i := range c1.Adj {
			if c1.Adj[i] != c2.Adj[i] || c1.EW[i] != c2.EW[i] {
				t.Fatalf("iter %d: arc %d diverges: (%d,%g) vs (%d,%g)",
					iter, i, c1.Adj[i], c1.EW[i], c2.Adj[i], c2.EW[i])
			}
		}
	}
}

// TestRefreshCSRSmallDeltaAllocs locks the warm small-delta refresh at
// zero allocations: a journaled weight update plus an edge flip must be
// absorbed entirely by the in-place patch.
func TestRefreshCSRSmallDeltaAllocs(t *testing.T) {
	g := Grid(30, 30)
	c := g.ToCSR()
	u, v := Vertex(0), Vertex(1)
	w := 1.0
	allocs := testing.AllocsPerRun(20, func() {
		w += 0.5
		g.SetVertexWeight(u, w)
		if g.HasEdge(u, v) {
			_ = g.RemoveEdge(u, v)
		} else {
			_ = g.AddEdge(u, v, 1)
		}
		var patched bool
		c, patched = g.RefreshCSR(c)
		if !patched {
			t.Fatal("small delta did not take the patch path")
		}
	})
	if allocs > 0 {
		t.Fatalf("warm small-delta refresh allocates %.1f objects/op, want 0", allocs)
	}
}
