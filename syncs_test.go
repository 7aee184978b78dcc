package igp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestSyncsReadTheMovedRows: a warm refining call's syncs read the rows of
// the vertices that moved — the connectivity cache patches their
// neighbours — not the neighbours' rows: Stats.SyncArcsRead is at most
// 1.5 × Stats.SyncMovedArcs on a chained-mesh step and on a power-law
// growth step (the parent's syncs read 3–10× those rows).
func TestSyncsReadTheMovedRows(t *testing.T) {
	ctx := context.Background()
	check := func(name string, g *Graph, a *Assignment, eng *Engine, step func()) {
		t.Helper()
		if _, err := eng.Repartition(ctx, a); err != nil { // the first call rebuilds: every row
			t.Fatal(err)
		}
		step()
		st, err := eng.Repartition(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		if st.RefineMoved == 0 || st.SyncMovedArcs == 0 {
			t.Fatalf("%s: the step refined nothing (moved %d, moved arcs %d)", name, st.RefineMoved, st.SyncMovedArcs)
		}
		ratio := float64(st.SyncArcsRead) / float64(st.SyncMovedArcs)
		t.Logf("%s: syncs read %d arcs for %d arcs of moved vertices (%.2f×)", name, st.SyncArcsRead, st.SyncMovedArcs, ratio)
		if ratio > 1.5 {
			t.Fatalf("%s: syncs read %d arcs for %d arcs of moved vertices (%.2f×), want ≤ 1.5×", name, st.SyncArcsRead, st.SyncMovedArcs, ratio)
		}
	}

	seq, err := GenerateMeshSequence(2000, []int{60}, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := seq.Base.Clone()
	a, err := PartitionRSB(g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	check("chained mesh", g, a, eng, func() { followStep(t, g, seq.Steps[0].Graph) })

	rng := rand.New(rand.NewSource(11))
	pg, err := graph.PowerLaw(3000, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := PartitionRSB(pg, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	peng, err := NewEngine(pg, WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	check("power law", pg, pa, peng, func() {
		for k := 0; k < 16; k++ {
			u := Vertex(rng.Intn(pg.Order()))
			if err := pg.AddEdge(pg.AddVertex(1), u, 1); err != nil {
				t.Fatal(err)
			}
		}
		pa.Grow(pg.Order())
	})
}
