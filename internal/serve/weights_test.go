package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	igp "repro"
)

// TestEdgeWeightRule: an edge weight that is fractional, negative, NaN or
// past the total-weight bound is refused with an error matching
// igp.ErrEdgeWeight by every way in — Graph.AddEdge, ReadGraph, the
// service's edits (ApplyEdit, and a 400 over HTTP where JSON can carry
// the value) and Graph.Validate — while 0 and 1 are accepted.
func TestEdgeWeightRule(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	info, err := srv.CreateGraph(t.Context(), GraphSpec{MeshN: 100, Seed: 3, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	pair := func() *igp.Graph { return igp.NewGraphWithVertices(2) } // no edge yet
	for _, tc := range []struct {
		name string
		w    float64
		ok   bool
	}{
		{"fractional", 2.5, false},
		{"negative", -3, false},
		{"NaN", math.NaN(), false},
		{"past the bound", igp.MaxTotalEdgeWeight + 1, false},
		{"zero", 0, true},
		{"one", 1, true},
	} {
		check := func(way string, err error) {
			t.Helper()
			if tc.ok && err != nil {
				t.Errorf("%s, %s: %v", tc.name, way, err)
			}
			if !tc.ok && !errors.Is(err, igp.ErrEdgeWeight) {
				t.Errorf("%s, %s: got %v, want an error matching ErrEdgeWeight", tc.name, way, err)
			}
		}
		g := pair()
		check("AddEdge", g.AddEdge(0, 1, tc.w))

		text := fmt.Sprintf("igp-graph 2 1\nv 0 1\nv 1 1\ne 0 1 %v\n", tc.w)
		_, err := igp.ReadGraph(strings.NewReader(text))
		check("ReadGraph", err)

		g = pair()
		g.AddEdgeUnchecked(0, 1, tc.w)
		check("Validate", g.Validate())

		if tc.w == 0 { // the service reads an omitted or zero weight as 1
			continue
		}
		check("ApplyEdit add_edge", ApplyEdit(pair(), Edit{Op: OpAddEdge, U: 0, V: 1, Weight: tc.w}))
		check("ApplyEdit attach_vertex", ApplyEdit(pair(), Edit{Op: OpAttachVertex, U: 0, V: 1, Weight: tc.w}))
		if math.IsNaN(tc.w) {
			continue // JSON has no NaN
		}
		body, _ := json.Marshal(map[string]any{"edits": []map[string]any{{"op": "add_edge", "u": 0, "v": 99, "weight": tc.w}}})
		resp, err := http.Post(ts.URL+"/graphs/"+info.ID+"/edits", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[tc.ok]; resp.StatusCode != want {
			t.Errorf("%s, POST edits: status %d, want %d", tc.name, resp.StatusCode, want)
		}
		if tc.ok { // put the mesh back for the next row
			if _, err := srv.Submit(t.Context(), info.ID, []Edit{{Op: OpRemoveEdge, U: 0, V: 99}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The bound is on the total: one edge may weigh all of it, and the
	// next edge, or an attach_vertex's pair of edges, is refused.
	g := igp.NewGraphWithVertices(3)
	if err := g.AddEdge(0, 1, igp.MaxTotalEdgeWeight-2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 3); !errors.Is(err, igp.ErrEdgeWeight) {
		t.Fatalf("an edge past the total bound: got %v, want ErrEdgeWeight", err)
	}
	if err := ApplyEdit(g, Edit{Op: OpAttachVertex, U: 0, V: 2, Weight: 2}); !errors.Is(err, igp.ErrEdgeWeight) || g.Order() != 3 {
		t.Fatalf("an attach_vertex past the total bound: got %v and %d vertices, want ErrEdgeWeight and 3", err, g.Order())
	}
	if err := g.AddEdge(1, 2, 2); err != nil {
		t.Fatalf("an edge up to the total bound: %v", err)
	}
}
