package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks that arbitrary input never panics the parser and that
// anything it accepts — integer edge weights only — validates and
// round-trips losslessly.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	_ = Write(&seed, Grid(3, 3))
	f.Add(seed.String())
	f.Add("igp-graph 2 1\nv 0 1\nv 1 2\ne 0 1 3\n")
	f.Add("igp-graph 0 0\n")
	f.Add("bogus\n")
	f.Add("igp-graph -1 0") // negative counts must be rejected before any make
	f.Add("igp-graph 2 1\nv 0 1\n# comment\nv 1 1\ne 0 1 1\n")
	f.Add("igp-graph 2 1\nv 0 1\nv 1 1\ne 0 1 0.5\n") // a fractional edge weight is refused
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if h.Order() != g.Order() || h.NumEdges() != g.NumEdges() || h.NumVertices() != g.NumVertices() {
			t.Fatal("round trip changed the graph")
		}
	})
}
