package igp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := NewMeshGraph(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PartitionRSB(g, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := Imbalance(g, a); got > 1.02 {
		t.Fatalf("RSB imbalance %g", got)
	}
	baseCut := Cut(g, a)
	if baseCut.Total <= 0 {
		t.Fatal("no cut recorded")
	}

	// Grow the graph incrementally: attach 40 vertices near vertex 0.
	prev := []Vertex{0}
	for i := 0; i < 40; i++ {
		v := g.AddVertex(1)
		if err := g.AddEdge(v, prev[len(prev)-1], 1); err != nil {
			t.Fatal(err)
		}
		prev = append(prev, v)
	}
	st, err := Repartition(context.Background(), g, a, WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	if st.NewAssigned != 40 {
		t.Fatalf("assigned %d, want 40", st.NewAssigned)
	}
	if st.Stages == 0 || st.LPVars == 0 {
		t.Fatalf("missing stats: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Fatalf("Elapsed not measured: %+v", st)
	}
	if st.LPIterations <= 0 {
		t.Fatalf("LPIterations not measured: %+v", st)
	}
	if got := Imbalance(g, a); got > 1.02 {
		t.Fatalf("post-repartition imbalance %g", got)
	}
}

// TestPublicAPISolverNames pins the solver set to the network default
// and the dense oracle: both construct, and anything else — the retired
// names included — is an eager error that names both.
func TestPublicAPISolverNames(t *testing.T) {
	for _, name := range []string{"", "network", "dense"} {
		if _, err := NewEngine(NewGraphWithVertices(2), WithSolver(name)); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	for _, name := range []string{"nope", "mwu", "revised", "dual-warm", "bounded"} {
		_, err := NewEngine(NewGraphWithVertices(2), WithSolver(name))
		if err == nil {
			t.Fatalf("%q must error at NewEngine", name)
		}
		if !strings.Contains(err.Error(), "network") || !strings.Contains(err.Error(), "dense") {
			t.Fatalf("%q: error %q does not name both solvers", name, err)
		}
		if _, err := Repartition(context.Background(), NewGraphWithVertices(2),
			&Assignment{Part: []int32{0, 0}, P: 1}, WithSolver(name)); err == nil {
			t.Fatalf("%q must error at Repartition", name)
		}
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	g := NewGraphWithVertices(4)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(2, 3, 2)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
}

func TestPublicAPISimulateParallel(t *testing.T) {
	g, err := NewMeshGraph(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PartitionRSB(g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := []Vertex{0}
	for i := 0; i < 20; i++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[len(prev)-1], 1)
		prev = append(prev, v)
	}
	a1 := a.Clone()
	r1, err := SimulateParallelRepartition(context.Background(), g, a1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a8 := a.Clone()
	r8, err := SimulateParallelRepartition(context.Background(), g, a8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r8.SimTime >= r1.SimTime {
		t.Fatalf("8 ranks (%v) not faster than 1 (%v)", r8.SimTime, r1.SimTime)
	}
	if r8.Messages == 0 || r8.Bytes == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestPublicAPIDescribeBalanceLP(t *testing.T) {
	g := NewGraphWithVertices(6)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(2, 3, 1)
	_ = g.AddEdge(3, 4, 1)
	_ = g.AddEdge(4, 5, 1)
	a := &Assignment{Part: []int32{0, 0, 0, 0, 1, 1}, P: 2}
	out, err := DescribeBalanceLP(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"minimize", "l(0,1)", "outflow(0)", "dense form"} {
		if !strings.Contains(out, want) {
			t.Fatalf("description missing %q:\n%s", want, out)
		}
	}
}

// TestPublicAPIErrNeedRepartition: disconnected growth the balance LP
// cannot carry — an island placed whole on one partition — is no case for
// ErrNeedRepartition: the spill balances it exactly. That error is left
// to an assignment with no assigned vertex
// (TestNoAssignedVertexNeedsRepartition).
func TestPublicAPIErrNeedRepartition(t *testing.T) {
	g := NewGraphWithVertices(6)
	for i := 0; i < 5; i++ {
		_ = g.AddEdge(Vertex(i), Vertex(i+1), 1)
	}
	a := &Assignment{Part: []int32{0, 0, 0, 1, 1, 1}, P: 2}
	// New island of 8 vertices, disconnected.
	var island []Vertex
	for i := 0; i < 8; i++ {
		island = append(island, g.AddVertex(1))
	}
	for i := 0; i+1 < len(island); i++ {
		_ = g.AddEdge(island[i], island[i+1], 1)
	}
	st, err := Repartition(context.Background(), g, a)
	if err != nil {
		t.Fatal(err)
	}
	if sizes := a.Sizes(g); sizes[0] != 7 || sizes[1] != 7 {
		t.Fatalf("sizes %v, want [7 7]", sizes)
	}
	if st.Spilled == 0 {
		t.Fatal("Spilled = 0: the island should have needed the spill")
	}
}

// TestNoAssignedVertexNeedsRepartition: an assignment with no assigned
// vertex gives phase 1 nothing to grow from, and every entry point says so
// with an error matching ErrNeedRepartition.
func TestNoAssignedVertexNeedsRepartition(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(*Graph, *Assignment) error
	}{
		{"Repartition", func(g *Graph, a *Assignment) error { _, err := Repartition(ctx, g, a); return err }},
		{"Engine.Repartition", func(g *Graph, a *Assignment) error {
			e, err := NewEngine(g)
			if err != nil {
				return err
			}
			_, err = e.Repartition(ctx, a)
			return err
		}},
		{"WithMultilevel", func(g *Graph, a *Assignment) error { _, err := Repartition(ctx, g, a, WithMultilevel()); return err }},
		{"WithBatches", func(g *Graph, a *Assignment) error { _, err := Repartition(ctx, g, a, WithBatches(3)); return err }},
		{"SimulateParallelRepartition", func(g *Graph, a *Assignment) error {
			_, err := SimulateParallelRepartition(ctx, g, a, 2)
			return err
		}},
	} {
		g, err := NewMeshGraph(60, 1)
		if err != nil {
			t.Fatal(err)
		}
		a := &Assignment{Part: make([]int32, g.Order()), P: 2}
		for v := range a.Part {
			a.Part[v] = Unassigned
		}
		if err := tc.run(g, a); !errors.Is(err, ErrNeedRepartition) {
			t.Errorf("%s: err %v, want one matching ErrNeedRepartition", tc.name, err)
		}
	}
}

func TestPublicAPIBatches(t *testing.T) {
	g, err := NewMeshGraph(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PartitionRSB(g, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := []Vertex{0}
	for i := 0; i < 36; i++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[len(prev)-1], 1)
		prev = append(prev, v)
	}
	st, err := Repartition(context.Background(), g, a, WithRefine(), WithBatches(3))
	if err != nil {
		t.Fatal(err)
	}
	if st.NewAssigned != 36 {
		t.Fatalf("assigned %d, want 36", st.NewAssigned)
	}
	// The per-round curves are rolled up across the batches too.
	moved := 0
	for _, m := range st.RoundMoved {
		moved += m
	}
	if len(st.RoundMoved) != st.RefineRounds || len(st.RoundCuts) != st.RefineRounds || moved != st.RefineMoved {
		t.Fatalf("%d rounds moving %d: RoundMoved %v, RoundCuts %v", st.RefineRounds, st.RefineMoved, st.RoundMoved, st.RoundCuts)
	}
	if got := Imbalance(g, a); got > 1.05 {
		t.Fatalf("imbalance %g", got)
	}
}

func TestPublicAPITolerance(t *testing.T) {
	g, err := NewMeshGraph(300, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PartitionRSB(g, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	prev := []Vertex{0}
	for i := 0; i < 20; i++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev[len(prev)-1], 1)
		prev = append(prev, v)
	}
	exact := a.Clone()
	stExact, err := Repartition(context.Background(), g, exact)
	if err != nil {
		t.Fatal(err)
	}
	loose := a.Clone()
	stLoose, err := Repartition(context.Background(), g, loose, WithTolerance(3))
	if err != nil {
		t.Fatal(err)
	}
	if stLoose.BalanceMoved > stExact.BalanceMoved {
		t.Fatalf("tolerance moved more (%d) than exact (%d)", stLoose.BalanceMoved, stExact.BalanceMoved)
	}
}
