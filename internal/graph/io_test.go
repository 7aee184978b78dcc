package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := Grid(4, 4)
	_ = g.RemoveVertex(5)
	g.SetVertexWeight(0, 2.25)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Order() != g.Order() || h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d/%d vs %d/%d/%d",
			h.Order(), h.NumVertices(), h.NumEdges(), g.Order(), g.NumVertices(), g.NumEdges())
	}
	if h.Alive(5) {
		t.Fatal("dead slot must survive round trip")
	}
	if h.VertexWeight(0) != 2.25 {
		t.Fatalf("vertex weight = %g, want 2.25", h.VertexWeight(0))
	}
	for _, v := range g.Vertices() {
		for i, u := range g.Neighbors(v) {
			w, ok := h.EdgeWeight(v, u)
			if !ok || w != g.EdgeWeights(v)[i] {
				t.Fatalf("edge {%d,%d} mismatch after round trip", v, u)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n",
		"igp-graph 2 0\nv 5 1\n",               // out-of-range vertex
		"igp-graph 2 1\nv 0 1\nv 1 1\n",        // missing edge
		"igp-graph 2 0\nv 0 1\nx 0 1 1\n",      // unknown record
		"igp-graph 2 0\nv 0\n",                 // short vertex line
		"igp-graph 2 1\nv 0 1\nv 1 1\ne 0 1\n", // short edge line
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) should fail", c)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		g, err := RandomGNM(40, 80, rng)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		if h.NumEdges() != g.NumEdges() {
			t.Fatalf("edges %d != %d", h.NumEdges(), g.NumEdges())
		}
	}
}

// TestReadRejectsBadIDsAndWeights: an id that does not fit a Vertex must
// not wrap onto a live one, and a weight must be finite and ≥ 0 — the
// rule serve applies to edits.
func TestReadRejectsBadIDsAndWeights(t *testing.T) {
	const head = "igp-graph 3 1\nv 0 1\nv 1 1\nv 2 1\n"
	cases := map[string]string{
		"edge id wraps to 0":     head + "e 4294967296 1 1\n",
		"edge id past int32":     head + "e 0 2147483648 1\n",
		"negative edge id":       head + "e -1 1 1\n",
		"vertex id wraps to 0":   "igp-graph 3 0\nv 4294967296 1\n",
		"NaN vertex weight":      "igp-graph 3 0\nv 0 NaN\n",
		"Inf vertex weight":      "igp-graph 3 0\nv 0 +Inf\n",
		"negative vertex weight": "igp-graph 3 0\nv 0 -1\n",
		"NaN edge weight":        head + "e 0 1 NaN\n",
		"Inf edge weight":        head + "e 0 1 Inf\n",
		"negative edge weight":   head + "e 0 1 -0.5\n",
	}
	for name, in := range cases {
		if g, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted %q (%d edges)", name, in, g.NumEdges())
		}
	}
	if _, err := Read(strings.NewReader(head + "e 0 1 0\n")); err != nil {
		t.Fatalf("zero edge weight must be accepted: %v", err)
	}
}

// TestRoundTripGenerators: Write→Read→Write reproduces every generator's
// encoding byte for byte.
func TestRoundTripGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	geo, _ := RandomGeometric(200, 0.12, rng)
	pl, err := PowerLaw(300, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	gnm, err := RandomGNM(60, 150, rng)
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid(9, 7)
	grid.SetVertexWeight(4, 0.375)
	_ = grid.RemoveVertex(10)
	for name, g := range map[string]*Graph{
		"grid": grid, "torus": Torus(6, 5), "gnm": gnm, "geometric": geo,
		"path": Path(17), "powerlaw": pl, "complete": Complete(9),
	} {
		var first, second bytes.Buffer
		if err := Write(&first, g); err != nil {
			t.Fatal(err)
		}
		h, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Write(&second, h); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: round trip changed the encoding", name)
		}
	}
}
