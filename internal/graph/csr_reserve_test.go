package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mesh"
)

// TestColdCSRReservesExactly: a cold snapshot decides its layout before
// it reserves, so Adj and EW are allocated once at their final length —
// full pads on a mesh (one vertex deleted: a dead slot gets none) and a
// grid, lean pads past the 2¹⁷-vertex threshold.
func TestColdCSRReservesExactly(t *testing.T) {
	gen, err := mesh.NewGenerator(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := gen.Mesh().Graph()
	if err := m.RemoveVertex(17); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh", m},
		{"grid 316x316", graph.Grid(316, 316)},
		{"grid 400x400", graph.Grid(400, 400)},
	} {
		c := tc.g.ToCSR()
		if len(c.Adj) != cap(c.Adj) || len(c.EW) != cap(c.EW) {
			t.Errorf("%s: Adj %d of %d slots, EW %d of %d", tc.name, len(c.Adj), cap(c.Adj), len(c.EW), cap(c.EW))
		}
	}
}
