package serve

import (
	"context"
	"encoding/json"
	"errors"
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
		g, a, eng := replaySession(t, GraphSpec{MeshN: meshN, Seed: seed, P: p})
		defer eng.Close()

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

// specFromBytes decodes fuzz bytes into a small edge-list GraphSpec:
// data[0] sets n ∈ [1, 256], data[1] sets P ∈ [2, 16], and every later
// byte pair (u, v) adds the edge {u mod n, v mod n} unless it is a
// self-loop or already present.
func specFromBytes(data []byte) (GraphSpec, bool) {
	if len(data) < 2 {
		return GraphSpec{}, false
	}
	spec := GraphSpec{Vertices: int(data[0]) + 1, P: 2 + int(data[1])%15}
	seen := make(map[[2]int]bool)
	for i := 2; i+1 < len(data); i += 2 {
		u, v := int(data[i])%spec.Vertices, int(data[i+1])%spec.Vertices
		e := [2]int{min(u, v), max(u, v)}
		if u == v || seen[e] {
			continue
		}
		seen[e] = true
		spec.Edges = append(spec.Edges, e)
	}
	return spec, true
}

// specBytes is specFromBytes' inverse for a corpus seed.
func specBytes(spec GraphSpec) []byte {
	data := []byte{byte(spec.Vertices - 1), byte(spec.P - 2)}
	for _, e := range spec.Edges {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data
}

// FuzzCreateGraph creates a session over an arbitrary small edge-list
// spec. No panic; a spec is rejected only as a spec (errGraphSpec), and a
// valid one never fails: the session starts valid and exactly on
// partition.Targets, with no fallback tier behind the cold start.
func FuzzCreateGraph(f *testing.F) {
	f.Add(specBytes(starSpec(100, 5, 0)))
	f.Add(specBytes(starSpec(200, 16, 0)))
	f.Add(specBytes(GraphSpec{Vertices: 64, P: 16}))
	f.Add(specBytes(GraphSpec{Vertices: 200, P: 5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, ok := specFromBytes(data)
		if !ok {
			return
		}
		sess, err := New(Config{}).newSession(context.Background(), spec)
		if errors.Is(err, errGraphSpec) {
			return
		}
		if err != nil {
			t.Fatalf("CreateGraph on a valid spec: %v", err)
		}
		defer sess.eng.Close()
		checkExactBalance(t, sess.g, sess.a)
	})
}
