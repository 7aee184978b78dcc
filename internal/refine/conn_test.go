package refine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// requireConnRows checks every filled slot of c against a fresh scan of
// its row in g under part: in, and one entry per other partition with the
// arcs' weight and count.
func requireConnRows(t testing.TB, ctx string, c *Conn, g *graph.Graph, part []int32) {
	t.Helper()
	type entry struct{ w, arcs int32 }
	for v := graph.Vertex(0); int(v) < g.Order(); v++ {
		if c.Stale(v) {
			continue
		}
		in, want := int32(0), map[int32]entry{}
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if part[u] == part[v] {
				in += int32(ws[i])
			} else {
				x := want[part[u]]
				want[part[u]] = entry{x.w + int32(ws[i]), x.arcs + 1}
			}
		}
		got := map[int32]entry{}
		for _, x := range c.Entries(v) {
			if _, dup := got[x.Part]; dup {
				t.Fatalf("%s: vertex %d lists partition %d twice", ctx, v, x.Part)
			}
			got[x.Part] = entry{x.Wt, x.Arcs}
		}
		if c.In(v) != in || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: vertex %d holds in %d and %v, its row scans to in %d and %v", ctx, v, c.In(v), got, in, want)
		}
	}
}

// TestConnArenaBoundedUnderChurn moves a few vertices at a time, thousands
// of times, patching the table the two ways the engine's sync does — a
// filled mover by Moved over its row and Shift, a stale one (Invalidate)
// by a patching Fill — and checks the entries against the rows and the
// arena against conn.go's bound: of each block capacity, only as many
// blocks as were once live at the same time, so at most, per vertex, one
// block of every capacity up to the one its largest entry count needs.
func TestConnArenaBoundedUnderChurn(t *testing.T) {
	const p = 6
	rng := rand.New(rand.NewSource(17))
	g, _ := graph.RandomGeometric(300, 0.08, rng)
	graph.EnsureConnected(g)
	for v := 0; v < g.Order(); v++ { // random integer weights, zero included
		for _, u := range append([]graph.Vertex(nil), g.Neighbors(graph.Vertex(v))...) {
			if graph.Vertex(v) < u {
				_ = g.RemoveEdge(graph.Vertex(v), u)
				_ = g.AddEdge(graph.Vertex(v), u, float64(rng.Intn(10)))
			}
		}
	}
	csr := g.ToCSR()
	part := make([]int32, g.Order())
	for v := range part {
		part[v] = int32(rng.Intn(p))
	}
	var c Conn
	c.Reserve(p)
	c.Refill(csr, part)
	requireConnRows(t, "after refill", &c, g, part)
	for round := 0; round < 3000; round++ {
		for k := 0; k < 3; k++ {
			v := graph.Vertex(rng.Intn(g.Order()))
			to := int32(rng.Intn(p))
			if to == part[v] {
				continue
			}
			if rng.Intn(4) == 0 {
				from := part[v]
				c.Invalidate(v)
				part[v] = to
				c.Fill(csr, part, v, true, from)
			} else {
				c.Move(g, part, v, to)
			}
		}
	}
	requireConnRows(t, "after churn", &c, g, part)
	limit := 0
	for v := 0; v < g.Order(); v++ {
		most := blockCap(int32(min(g.Degree(graph.Vertex(v)), p-1)))
		for k := int32(1); k <= most; k = blockCap(k + 1) {
			limit += int(k)
		}
	}
	if len(c.ent) > limit {
		t.Fatalf("the arena holds %d entries, past the bound %d", len(c.ent), limit)
	}
}
