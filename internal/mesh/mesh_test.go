package mesh

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

func TestDelaunaySquare(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1.0001}}
	m, err := NewDelaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVertices() != 4 {
		t.Fatalf("vertices = %d, want 4", m.NumVertices())
	}
	tris := m.Triangles()
	if len(tris) != 2 {
		t.Fatalf("triangles = %d, want 2", len(tris))
	}
	g := m.Graph()
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("graph %d/%d, want 4 vertices, 5 edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDelaunayRejectsDuplicates(t *testing.T) {
	m, err := NewDelaunay([]geom.Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.3}, {X: 0.5, Y: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(geom.Point{X: 0.2, Y: 0.2}); err == nil {
		t.Fatal("duplicate point must be rejected")
	}
}

func TestDelaunayRandomValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	m, err := NewDelaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(rng, 2000); err != nil {
		t.Fatal(err)
	}
	g := m.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("Delaunay graph must be connected")
	}
	// Planar triangulation: e ≈ 3v (within hull-boundary slack).
	if g.NumEdges() < 2*g.NumVertices() || g.NumEdges() > 3*g.NumVertices() {
		t.Fatalf("edge count %d out of range for %d vertices", g.NumEdges(), g.NumVertices())
	}
}

func TestGeneratorSize(t *testing.T) {
	gen, err := NewGenerator(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Mesh().NumVertices() != 500 {
		t.Fatalf("vertices = %d, want 500", gen.Mesh().NumVertices())
	}
	rng := rand.New(rand.NewSource(2))
	if err := gen.Mesh().Validate(rng, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestRefineDiskAddsLocalizedVertices(t *testing.T) {
	gen, err := NewGenerator(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	center := geom.Point{X: 0.5, Y: 0.5}
	before := gen.Mesh().NumVertices()
	added, err := gen.RefineDisk(center, 0.2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 30 || gen.Mesh().NumVertices() != before+30 {
		t.Fatalf("added %d vertices, want 30", len(added))
	}
	// All new points must lie near the disk.
	for _, vid := range added {
		p := gen.Mesh().Point(vid)
		if p.Dist(center) > 0.25 {
			t.Fatalf("refined vertex %d at %v outside disk", vid, p)
		}
	}
	rng := rand.New(rand.NewSource(4))
	if err := gen.Mesh().Validate(rng, 1000); err != nil {
		t.Fatal(err)
	}
}

// TestRefineNegativeCountIsAnError: a negative refinement size is an
// error from RefineDisk and from both sequence builders, never a panic,
// and the mesh is left as it was.
func TestRefineNegativeCountIsAnError(t *testing.T) {
	gen, err := NewGenerator(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := gen.Mesh().NumVertices()
	if added, err := gen.RefineDisk(geom.Point{X: 0.5, Y: 0.5}, 0.2, -3); err == nil || added != nil {
		t.Fatalf("RefineDisk(-3) = %v, %v; want an error", added, err)
	}
	if n := gen.Mesh().NumVertices(); n != before {
		t.Fatalf("a rejected refinement changed the mesh: %d vertices, want %d", n, before)
	}
	if _, err := GenerateChained(100, []int{5, -3}, 1); err == nil {
		t.Fatal("GenerateChained accepted a negative growth step")
	}
	if _, err := GenerateFanOut(100, []int{-3}, 1); err == nil {
		t.Fatal("GenerateFanOut accepted a negative growth step")
	}
}

func TestUpdateGraphIncremental(t *testing.T) {
	gen, err := NewGenerator(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Mesh().Graph()
	edgesBefore := g.NumEdges()
	if _, err := gen.RefineDisk(geom.Point{X: 0.3, Y: 0.3}, 0.15, 20); err != nil {
		t.Fatal(err)
	}
	if err := gen.Mesh().UpdateGraph(g); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 220 {
		t.Fatalf("vertices = %d, want 220", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Refinement must both add and remove edges (Delaunay flips).
	fresh := gen.Mesh().Graph()
	if g.NumEdges() != fresh.NumEdges() {
		t.Fatalf("updated graph has %d edges, fresh build %d", g.NumEdges(), fresh.NumEdges())
	}
	for _, v := range fresh.Vertices() {
		for _, u := range fresh.Neighbors(v) {
			if !g.HasEdge(v, u) {
				t.Fatalf("updated graph missing edge {%d,%d}", v, u)
			}
		}
	}
	if g.NumEdges() <= edgesBefore {
		t.Fatalf("edges %d → %d, expected growth", edgesBefore, g.NumEdges())
	}
}

func TestGenerateChainedSequence(t *testing.T) {
	seq, err := GenerateChained(300, []int{10, 15, 20}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Base.NumVertices() != 300 {
		t.Fatalf("base = %d, want 300", seq.Base.NumVertices())
	}
	want := 300
	for i, st := range seq.Steps {
		want += st.NewVertices
		if st.Graph.NumVertices() != want {
			t.Fatalf("step %d: %d vertices, want %d", i, st.Graph.NumVertices(), want)
		}
		if err := st.Graph.Validate(); err != nil {
			t.Fatal(err)
		}
		if !st.Graph.Connected() {
			t.Fatalf("step %d: disconnected", i)
		}
	}
	// Vertex identity stability: step graphs extend earlier ones.
	if seq.Steps[1].Graph.Order() <= seq.Steps[0].Graph.Order() {
		t.Fatal("steps must grow")
	}
}

func TestGenerateFanOutSequence(t *testing.T) {
	seq, err := GenerateFanOut(300, []int{10, 40}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Chained {
		t.Fatal("fan-out must not be chained")
	}
	if seq.Steps[0].Graph.NumVertices() != 310 || seq.Steps[1].Graph.NumVertices() != 340 {
		t.Fatalf("step sizes %d/%d, want 310/340",
			seq.Steps[0].Graph.NumVertices(), seq.Steps[1].Graph.NumVertices())
	}
	// Both steps share the same base prefix: vertex 0..299 have identical
	// coordinates, so base graphs agree.
	if seq.Base.NumVertices() != 300 {
		t.Fatalf("base = %d", seq.Base.NumVertices())
	}
}

func TestSequencePointsCoverVertices(t *testing.T) {
	seq, err := GenerateChained(200, []int{12}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Points) != 212 {
		t.Fatalf("points = %d, want 212", len(seq.Points))
	}
}

// TestGenerationDeterministicInSeed: the documented contract is that
// mesh generation is a pure function of the seed. This regression test
// pins the fix for the cavity/update map-iteration leak: generating the
// same seeded sequence twice (in one process) must produce
// byte-identical graphs at every step.
func TestGenerationDeterministicInSeed(t *testing.T) {
	encode := func(g *graph.Graph) string {
		var b strings.Builder
		if err := graph.Write(&b, g); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, seed := range []int64{1, 7, 1994} {
		a, err := PaperSequenceA(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PaperSequenceA(seed)
		if err != nil {
			t.Fatal(err)
		}
		if encode(a.Base) != encode(b.Base) {
			t.Fatalf("seed %d: base mesh differs between generations", seed)
		}
		for i := range a.Steps {
			if encode(a.Steps[i].Graph) != encode(b.Steps[i].Graph) {
				t.Fatalf("seed %d: step %d graph differs between generations", seed, i)
			}
		}
	}
}
