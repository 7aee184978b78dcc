package igp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
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

// TestPublicAPISolverNames pins the built-in set to the network default
// and the dense oracle: every one constructs, and
// anything else — the retired names included — is an eager error that
// lists what is registered.
func TestPublicAPISolverNames(t *testing.T) {
	// Tests in this package register "test-…" names; the rest are built in.
	builtins := slices.DeleteFunc(SolverNames(), func(n string) bool { return strings.HasPrefix(n, "test-") })
	if want := []string{"dense", "network"}; !slices.Equal(builtins, want) {
		t.Fatalf("built-in solvers are %v, want exactly %v", builtins, want)
	}
	for _, name := range builtins {
		if _, err := NewEngine(NewGraphWithVertices(2), WithSolver(name)); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	for _, name := range []string{"nope", "mwu", "revised", "dual-warm", "bounded"} {
		_, err := NewEngine(NewGraphWithVertices(2), WithSolver(name))
		if err == nil {
			t.Fatalf("%q must error at NewEngine", name)
		}
		if listing := fmt.Sprint(SolverNames()); !strings.Contains(err.Error(), listing) {
			t.Fatalf("%q: error %q does not list the registered names %s", name, err, listing)
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

func TestPublicAPIErrNeedRepartition(t *testing.T) {
	// Disconnected growth that cannot be balanced incrementally.
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
	_, err := Repartition(context.Background(), g, a)
	if err == nil {
		return // balanced via the cluster fallback — acceptable
	}
	if !errors.Is(err, ErrNeedRepartition) {
		t.Fatalf("unexpected error type: %v", err)
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
