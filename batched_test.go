package igp

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
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

func TestBatchedMatchesOneShotBalance(t *testing.T) {
	for _, batches := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(7))
		g, a := burstGrid(8, 16, 4, 30, rng)
		st, err := Repartition(context.Background(), g, a, WithBatches(batches), WithRefine())
		if err != nil {
			t.Fatalf("batches=%d: %v", batches, err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("batches=%d: %v", batches, err)
		}
		sizes := a.Sizes(g)
		targets := partition.Targets(g.NumVertices(), 4)
		for q := range sizes {
			if sizes[q] != targets[q] {
				t.Fatalf("batches=%d: sizes %v != targets %v", batches, sizes, targets)
			}
		}
		if st.NewAssigned != 30 {
			t.Fatalf("batches=%d: assigned %d, want 30", batches, st.NewAssigned)
		}
	}
}

func TestBatchedStagesAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, a := burstGrid(8, 16, 4, 40, rng)
	st, err := Repartition(context.Background(), g, a, WithBatches(4))
	if err != nil {
		t.Fatal(err)
	}
	// Each batch that needed movement contributes at least one stage.
	if st.Stages < 2 || len(st.EpsilonUsed) != st.Stages {
		t.Fatalf("stages = %d (ε list %v), want ≥ 2 across 4 batches", st.Stages, st.EpsilonUsed)
	}
}

func TestBatchedArgErrors(t *testing.T) {
	g := graph.Path(4)
	a := partition.New(4, 2)
	a.Part = []int32{0, 0, 1, 1}
	if _, err := Repartition(context.Background(), g, a, WithBatches(0)); err == nil {
		t.Fatal("0 batches must error")
	}
	b := partition.New(4, 2)
	if _, err := Repartition(context.Background(), g, b, WithBatches(2)); err == nil {
		t.Fatal("no old assignment must error")
	}
}

func TestBatchedNoNewVertices(t *testing.T) {
	g := graph.Grid(4, 4)
	a := partition.New(g.Order(), 2)
	for v := 0; v < g.Order(); v++ {
		a.Part[v] = int32(v % 2)
	}
	if _, err := Repartition(context.Background(), g, a, WithBatches(3)); err != nil {
		t.Fatal(err)
	}
	if !partition.Balanced(a.Sizes(g)) {
		t.Fatalf("sizes %v", a.Sizes(g))
	}
}

func TestBatchedMoreBatchesThanVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, a := burstGrid(6, 12, 3, 4, rng)
	if _, err := Repartition(context.Background(), g, a, WithBatches(50)); err != nil {
		t.Fatal(err)
	}
	if !partition.Balanced(a.Sizes(g)) {
		t.Fatalf("sizes %v", a.Sizes(g))
	}
}

func TestBatchedSmallerPerStageMovement(t *testing.T) {
	// Batching bounds per-stage LP movement: the largest single-stage move
	// with 5 batches should not exceed the one-shot single-stage move.
	build := func() (*graph.Graph, *partition.Assignment) {
		rng := rand.New(rand.NewSource(11))
		return burstGrid(8, 16, 4, 48, rng)
	}
	g1, a1 := build()
	one, err := engine.New(g1, engine.Options{}).Repartition(context.Background(), a1)
	if err != nil {
		t.Fatal(err)
	}
	g2, a2 := build()
	many, err := Repartition(context.Background(), g2, a2, WithBatches(5))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(many.StageMoved) > slices.Max(one.StageMoved) {
		t.Fatalf("batched max stage moved %d > one-shot %d", slices.Max(many.StageMoved), slices.Max(one.StageMoved))
	}
}

// TestBatchedEngineServesEditsWarm: a WithBatches(2) engine serves a call
// with nothing to batch — here, no new vertex — on its session engine, so
// an edit-only call after the first patches the warm snapshot instead of
// rebuilding it, and leaves what a WithBatches(1) engine leaves.
func TestBatchedEngineServesEditsWarm(t *testing.T) {
	ctx := context.Background()
	g, err := NewMeshGraph(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PartitionRSB(g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g1, a1 := g.Clone(), a.Clone()
	e, err := NewEngine(g, WithRefine(), WithBatches(2))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := NewEngine(g1, WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for call := 0; call < 2; call++ {
		for k := 0; call > 0 && k < 16; k++ {
			// A chord across two hops, on both graphs.
			v := graph.Vertex(rng.Intn(g.Order()))
			u := g.Neighbors(v)[0]
			w := g.Neighbors(u)[rng.Intn(g.Degree(u))]
			if w != v {
				g.AddEdgeIfAbsent(v, w, 1)
				g1.AddEdgeIfAbsent(v, w, 1)
			}
		}
		st, err := e.Repartition(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		if call > 0 && st.CSRPatched < 1 {
			t.Fatalf("call %d: CSRPatched %d, want ≥ 1: the edit-only call rebuilt its snapshot", call, st.CSRPatched)
		}
		if _, err := e1.Repartition(ctx, a1); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Part, a1.Part) {
			t.Fatalf("call %d: WithBatches(2) and WithBatches(1) engines disagree", call)
		}
	}
}
