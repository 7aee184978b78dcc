package serve

import (
	"encoding/json"
	"fmt"
	"math"

	igp "repro"
)

// EditOp names one graph mutation a client can submit.
type EditOp string

// The edit operations a session accepts. AttachVertex is the
// adaptive-mesh growth shape: it adds one new vertex and hooks it to up
// to two existing vertices in a single op, so a client can grow the
// graph without having to learn the new vertex id first.
const (
	OpAddVertex       EditOp = "add_vertex"        // add an isolated vertex (Weight, 0 = 1)
	OpAttachVertex    EditOp = "attach_vertex"     // add a vertex with edges to U (and V ≥ 0) of weight Weight (0 = 1)
	OpRemoveVertex    EditOp = "remove_vertex"     // remove vertex U and its edges
	OpAddEdge         EditOp = "add_edge"          // add edge {U,V} of weight Weight (0 = 1)
	OpRemoveEdge      EditOp = "remove_edge"       // remove edge {U,V}
	OpSetVertexWeight EditOp = "set_vertex_weight" // set U's weight to Weight — advisory: the balancer counts live vertices, not weights
)

// Edit is one graph mutation inside an edit-submission request. The
// fields' meaning depends on Op; see the op constants. V is -1 (or
// omitted in JSON, where the zero value 0 is only valid where a vertex
// id is expected) when unused.
type Edit struct {
	Op     EditOp  `json:"op"`
	U      int     `json:"u"`
	V      int     `json:"v"`
	Weight float64 `json:"weight,omitempty"`
}

// UnmarshalJSON decodes an edit with V defaulting to -1 (unused), so an
// omitted "v" field never silently means vertex 0.
func (e *Edit) UnmarshalJSON(b []byte) error {
	type wire Edit
	w := wire{V: -1}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*e = Edit(w)
	return nil
}

// vertexID converts id, the client-supplied value of field name in an
// op edit, rejecting what does not fit a Vertex: the bare int → int32
// conversion would alias such an id onto some other, possibly live,
// vertex.
func vertexID(op EditOp, name string, id int) (igp.Vertex, error) {
	if id < 0 || id > math.MaxInt32 {
		return 0, fmt.Errorf("serve: %s: %s=%d is not a vertex id", op, name, id)
	}
	return igp.Vertex(id), nil
}

// ApplyEdit applies one edit to g, returning an error (and mutating
// nothing) when the edit is malformed — an id its op uses outside
// [0, MaxInt32] (attach_vertex's optional V may be -1), a negative or
// non-finite weight — or invalid against the graph's current state. The
// serve session and the coalescing-equivalence tests share this exact
// function, so "the session applied the batch" and "the edits were
// applied directly" can never drift apart.
func ApplyEdit(g *igp.Graph, e Edit) error {
	w := e.Weight
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("serve: %s: weight %g is negative or not finite", e.Op, w)
	}
	if w == 0 {
		w = 1
	}
	if e.Op == OpAddVertex {
		g.AddVertex(w)
		return nil
	}
	// Every other op names a vertex in U.
	u, err := vertexID(e.Op, "u", e.U)
	if err != nil {
		return err
	}
	switch e.Op {
	case OpAttachVertex:
		if !g.Alive(u) {
			return fmt.Errorf("serve: attach_vertex: u=%d is not a live vertex", e.U)
		}
		v := igp.Vertex(-1)
		if e.V != -1 {
			if v, err = vertexID(e.Op, "v", e.V); err != nil {
				return err
			}
			if !g.Alive(v) {
				return fmt.Errorf("serve: attach_vertex: v=%d is not a live vertex", e.V)
			}
		}
		nv := g.AddVertex(w)
		g.AddEdgeIfAbsent(nv, u, w)
		if v >= 0 && v != u {
			g.AddEdgeIfAbsent(nv, v, w)
		}
		return nil
	case OpRemoveVertex:
		return g.RemoveVertex(u)
	case OpAddEdge, OpRemoveEdge:
		v, err := vertexID(e.Op, "v", e.V)
		if err != nil {
			return err
		}
		if e.Op == OpRemoveEdge {
			return g.RemoveEdge(u, v)
		}
		return g.AddEdge(u, v, w)
	case OpSetVertexWeight:
		if !g.Alive(u) {
			return fmt.Errorf("serve: set_vertex_weight: u=%d is not a live vertex", e.U)
		}
		g.SetVertexWeight(u, e.Weight)
		return nil
	default:
		return fmt.Errorf("serve: unknown edit op %q", e.Op)
	}
}

// applyEdits applies a request's edits in order, stopping at (and
// returning) the first invalid one. Edits before the failure stay
// applied — the graph is always left in a consistent state, and the
// next repartition absorbs whatever was applied.
func applyEdits(g *igp.Graph, edits []Edit) (applied int, err error) {
	for _, e := range edits {
		if err := ApplyEdit(g, e); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}
