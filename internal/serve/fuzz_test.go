package serve

import (
	"context"
	"encoding/json"
	"testing"

	igp "repro"
)

// FuzzServeEdits drives the bytes of a POST /graphs/{id}/edits body the
// way a session does — decode, applyEdits, one warm Repartition — on a
// small mesh. Whatever the body says: no panic, a structurally valid
// graph, a rejected edit that changed nothing, and an assignment that
// covers the live vertices with parts in range.
func FuzzServeEdits(f *testing.F) {
	for _, seed := range []string{
		`{"edits":[{"op":"remove_vertex","u":4294967296}]}`,
		`{"edits":[{"op":"set_vertex_weight","u":4294967301,"weight":-3}]}`,
		`{"edits":[{"op":"attach_vertex","u":3},{"op":"attach_vertex","u":3,"v":4,"weight":2.5}]}`,
		`{"edits":[{"op":"remove_vertex","u":7},{"op":"add_edge","u":1,"v":30},{"op":"remove_edge","u":0,"v":1}]}`,
		`{"edits":[{"op":"add_vertex"},{"op":"add_edge","u":60,"v":-1},{"op":"bogus"}],"timeout_ms":5}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req editsRequest
		if json.Unmarshal(body, &req) != nil || len(req.Edits) > 64 {
			return
		}
		const meshN, p, seed = 60, 4, 5
		g, err := igp.NewMeshGraph(meshN, seed)
		if err != nil {
			t.Fatal(err)
		}
		a, err := igp.PartitionRSB(g, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := igp.NewEngine(g)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.Repartition(context.Background(), a); err != nil {
			t.Fatalf("priming: %v", err)
		}

		applied, editErr := applyEdits(g, req.Edits)
		if err := g.Validate(); err != nil {
			t.Fatalf("graph after %d applied edits (rejection: %v): %v", applied, editErr, err)
		}
		if editErr != nil {
			// A mirror that takes only the accepted prefix must match g:
			// the rejected edit left the counts as they were before it.
			mirror, err := igp.NewMeshGraph(meshN, seed)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := applyEdits(mirror, req.Edits[:applied]); err != nil {
				t.Fatalf("mirror rejects accepted edit %d: %v", n, err)
			}
			if g.Order() != mirror.Order() || g.NumVertices() != mirror.NumVertices() || g.NumEdges() != mirror.NumEdges() {
				t.Fatalf("rejected edit %d (%v) changed the graph: %d slots, %d vertices, %d edges; before it %d, %d, %d",
					applied, editErr, g.Order(), g.NumVertices(), g.NumEdges(), mirror.Order(), mirror.NumVertices(), mirror.NumEdges())
			}
		}

		// The engine refuses a graph the edits left unbalanceable (most of
		// a partition's neighbourhood removed); it must still leave a
		// valid assignment behind.
		_, _ = eng.Repartition(context.Background(), a)
		if len(a.Part) != g.Order() {
			t.Fatalf("assignment has %d slots for %d vertex slots", len(a.Part), g.Order())
		}
		for v, part := range a.Part {
			if live := g.Alive(igp.Vertex(v)); part < -1 || int(part) >= a.P || live != (part >= 0) {
				t.Fatalf("vertex %d (live %v) has part %d, p=%d", v, live, part, a.P)
			}
		}
	})
}
