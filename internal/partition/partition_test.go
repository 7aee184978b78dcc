package partition

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestNewAndValidate(t *testing.T) {
	g := graph.Grid(2, 3)
	a := New(g.Order(), 2)
	if err := a.Validate(g); err == nil {
		t.Fatal("all-unassigned should fail validation for live vertices")
	}
	for v := 0; v < g.Order(); v++ {
		a.Part[v] = int32(v % 2)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	a.Part[0] = 5
	if err := a.Validate(g); err == nil {
		t.Fatal("out-of-range partition should fail")
	}
}

func TestValidateDeadSlots(t *testing.T) {
	g := graph.Grid(2, 2)
	_ = g.RemoveVertex(3)
	a := New(g.Order(), 2)
	for v := 0; v < 3; v++ {
		a.Part[v] = 0
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	a.Part[3] = 1
	if err := a.Validate(g); err == nil {
		t.Fatal("assigned dead slot should fail")
	}
}

func TestWeightsAndSizes(t *testing.T) {
	g := graph.NewWithVertices(4)
	g.SetVertexWeight(0, 2)
	a := New(4, 2)
	a.Part = []int32{0, 0, 1, 1}
	w := a.Weights(g)
	if w[0] != 3 || w[1] != 2 {
		t.Fatalf("weights = %v, want [3 2]", w)
	}
	s := a.Sizes(g)
	if s[0] != 2 || s[1] != 2 {
		t.Fatalf("sizes = %v, want [2 2]", s)
	}
}

func TestCutGrid(t *testing.T) {
	// 2x4 grid split down the middle: columns 0-1 vs 2-3.
	g := graph.Grid(2, 4)
	a := New(g.Order(), 2)
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			p := int32(0)
			if c >= 2 {
				p = 1
			}
			a.Part[r*4+c] = p
		}
	}
	st := Cut(g, a)
	if st.Total != 2 {
		t.Fatalf("total cut = %d, want 2", st.Total)
	}
	if st.PerPart[0] != 2 || st.PerPart[1] != 2 {
		t.Fatalf("per-part = %v, want [2 2]", st.PerPart)
	}
	if st.Max != 2 || st.Min != 2 {
		t.Fatalf("max/min = %g/%g, want 2/2", st.Max, st.Min)
	}
}

func TestCutIgnoresUnassigned(t *testing.T) {
	g := graph.Path(3)
	a := New(3, 2)
	a.Part = []int32{0, Unassigned, 1}
	st := Cut(g, a)
	if st.Total != 0 {
		t.Fatalf("cut = %d, want 0 (edges to unassigned don't count)", st.Total)
	}
}

func TestCutWeighted(t *testing.T) {
	g := graph.NewWithVertices(2)
	_ = g.AddEdge(0, 1, 3)
	a := New(2, 2)
	a.Part = []int32{0, 1}
	st := Cut(g, a)
	if st.TotalWeight != 3 || st.Total != 1 {
		t.Fatalf("weight=%g total=%d, want 3/1", st.TotalWeight, st.Total)
	}
}

// TestCutSummationOrder pins the sums the engine's tracked cut
// reproduces: a vertex's cut arcs summed into its term, the terms into
// PerPart and the total, and the total halved. Edge weights are integers
// whose total fits int32, so every sum is exact and no order shows; the
// weights here take that bound's top bit.
func TestCutSummationOrder(t *testing.T) {
	g := graph.NewWithVertices(4)
	w := []float64{1, 2, 3, 1 << 30}
	_ = g.AddEdge(0, 1, w[0])
	_ = g.AddEdge(0, 2, w[1])
	_ = g.AddEdge(0, 3, w[2])
	_ = g.AddEdge(1, 2, w[3])
	a := &Assignment{Part: []int32{0, 1, 1, 1}, P: 2}
	t0 := (w[0] + w[1]) + w[2] // vertex 0's row
	total := ((t0 + w[0]) + w[1]) + w[2]
	per1 := (w[0] + w[1]) + w[2]
	st := Cut(g, a)
	if st.Total != 3 || st.TotalWeight != total/2 || st.PerPart[0] != t0 || st.PerPart[1] != per1 {
		t.Fatalf("cut {%d %v %v}, want {3 %v [%v %v]}", st.Total, st.TotalWeight, st.PerPart, total/2, t0, per1)
	}
	if st.Max != max(t0, per1) || st.Min != min(t0, per1) {
		t.Fatalf("extremes %v/%v of %v", st.Max, st.Min, st.PerPart)
	}
}

func TestImbalance(t *testing.T) {
	g := graph.NewWithVertices(4)
	a := New(4, 2)
	a.Part = []int32{0, 0, 0, 1}
	if got := Imbalance(g, a); got != 1.5 {
		t.Fatalf("imbalance = %g, want 1.5", got)
	}
	b := New(4, 2)
	b.Part = []int32{0, 0, 1, 1}
	if got := Imbalance(g, b); got != 1.0 {
		t.Fatalf("imbalance = %g, want 1.0", got)
	}
}

// TestImbalanceDegenerate guards the mean-weight division: empty graphs,
// zero-weight graphs and partitionless assignments must report the
// trivially balanced 1.0, never NaN or ±Inf.
func TestImbalanceDegenerate(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		a    *Assignment
	}{
		{"empty graph", graph.New(0), New(0, 4)},
		{"no partitions", graph.NewWithVertices(3), &Assignment{Part: []int32{-1, -1, -1}, P: 0}},
		{"all unassigned", graph.NewWithVertices(3), New(3, 2)},
	}
	zw := graph.NewWithVertices(3)
	for v := 0; v < 3; v++ {
		zw.SetVertexWeight(graph.Vertex(v), 0)
	}
	za := &Assignment{Part: []int32{0, 0, 1}, P: 2}
	cases = append(cases, struct {
		name string
		g    *graph.Graph
		a    *Assignment
	}{"zero-weight vertices", zw, za})

	for _, tc := range cases {
		got := Imbalance(tc.g, tc.a)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: imbalance = %g, want finite 1.0", tc.name, got)
		}
		if got != 1.0 {
			t.Fatalf("%s: imbalance = %g, want 1.0", tc.name, got)
		}
	}
}

func TestTargets(t *testing.T) {
	got := Targets(10, 3)
	want := []int{4, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("targets = %v, want %v", got, want)
		}
	}
	sum := 0
	for _, x := range Targets(1071, 32) {
		sum += x
	}
	if sum != 1071 {
		t.Fatalf("targets don't sum to n: %d", sum)
	}
}

func TestBalanced(t *testing.T) {
	if !Balanced([]int{4, 3, 3}) {
		t.Fatal("4,3,3 is balanced")
	}
	if Balanced([]int{5, 3, 3}) {
		t.Fatal("5,3,3 is not balanced")
	}
	if !Balanced(nil) {
		t.Fatal("empty is balanced")
	}
}

func TestGrowAndOf(t *testing.T) {
	a := New(2, 2)
	a.Part[0] = 1
	a.Grow(5)
	if len(a.Part) != 5 {
		t.Fatalf("len = %d, want 5", len(a.Part))
	}
	if a.Of(0) != 1 || a.Of(3) != Unassigned || a.Of(99) != Unassigned {
		t.Fatal("Of() wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(3, 2)
	b := a.Clone()
	b.Part[0] = 1
	if a.Part[0] != Unassigned {
		t.Fatal("clone must not alias")
	}
}

func TestMetricsTolerateShortAssignment(t *testing.T) {
	// A graph that outgrew its assignment: extra vertices count as
	// Unassigned in every metric instead of panicking.
	g := graph.Path(3)
	a := New(3, 2)
	a.Part = []int32{0, 0, 1}
	g.AddVertex(1) // vertex 3, beyond a's coverage
	_ = g.AddEdge(3, 2, 1)
	if got := a.Sizes(g); got[0] != 2 || got[1] != 1 {
		t.Fatalf("sizes = %v", got)
	}
	if got := Cut(g, a); got.Total != 1 {
		t.Fatalf("cut = %d, want 1 (edge to uncovered vertex ignored)", got.Total)
	}
	if got := Imbalance(g, a); got != 2.0/1.5 {
		t.Fatalf("imbalance = %g", got)
	}
}

func TestAssignmentIORoundTrip(t *testing.T) {
	a := New(5, 3)
	a.Part = []int32{0, 2, Unassigned, 1, 0}
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadAssignment(&buf, 0, 0) // header supplies dimensions
	if err != nil {
		t.Fatal(err)
	}
	if b.P != 3 || len(b.Part) != 5 {
		t.Fatalf("dims %d/%d", b.P, len(b.Part))
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatalf("slot %d: %d != %d", i, a.Part[i], b.Part[i])
		}
	}
}

func TestAssignmentIOHeaderless(t *testing.T) {
	in := "0 1\n2 0\n"
	a, err := ReadAssignment(strings.NewReader(in), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Part[0] != 1 || a.Part[1] != Unassigned || a.Part[2] != 0 {
		t.Fatalf("parts = %v", a.Part)
	}
}

func TestAssignmentIOErrors(t *testing.T) {
	if _, err := ReadAssignment(strings.NewReader("9 0\n"), 3, 2); err == nil {
		t.Fatal("out-of-range vertex must error")
	}
	if _, err := ReadAssignment(strings.NewReader("bogus\n"), 3, 2); err == nil {
		t.Fatal("garbage must error")
	}
	if _, err := ReadAssignment(strings.NewReader("0 1\n"), 0, 0); err == nil {
		t.Fatal("headerless without dimensions must error")
	}
	// Dimensions beyond the int32 ids error before anything is allocated
	// instead of wrapping int32(q).
	for _, c := range []struct {
		in       string
		order, p int
	}{
		{"igp-assignment 4 4294967297\n0 4294967295\n1 2147483648\n", 0, 0},
		{"igp-assignment 4 2147483648\n0 1\n", 0, 0},
		{"igp-assignment 2147483649 2\n0 1\n", 0, 0},
		{"0 1\n", 3, math.MaxInt32 + 1},
		{"0 1\n", math.MaxInt32 + 2, 2},
		{"", 3, math.MaxInt32 + 1},
		{"", math.MaxInt32 + 2, 2},
	} {
		if a, err := ReadAssignment(strings.NewReader(c.in), c.order, c.p); err == nil {
			t.Fatalf("%q (order %d, P %d) decoded to P %d, %v; want an error", c.in, c.order, c.p, a.P, a.Part)
		}
	}
}
