package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// A workload is a recorded script: the edits of every op are generated
// once from the seed and replayed verbatim in every pass, so passes see
// bit-identical inputs and must end bit-identical.

type editKind uint8

const (
	addVertex  editKind = iota // weight w
	addEdge                    // {u,v} weight w
	removeEdge                 // {u,v}
	setWeight                  // vertex u to w
)

type edit struct {
	kind editKind
	u, v graph.Vertex
	w    float64
}

// apply replays edits on g. The scripts are recorded against the very
// graph state they are replayed on, so an edit that fails is a harness
// bug (or a pass that diverged) and is reported as an error.
func apply(g *graph.Graph, edits []edit) error {
	for _, e := range edits {
		var err error
		switch e.kind {
		case addVertex:
			g.AddVertex(e.w)
		case addEdge:
			err = g.AddEdge(e.u, e.v, e.w)
		case removeEdge:
			err = g.RemoveEdge(e.u, e.v)
		case setWeight:
			g.SetVertexWeight(e.u, e.w)
		}
		if err != nil {
			return fmt.Errorf("replay edit %+v: %w", e, err)
		}
	}
	return nil
}

// reconcile returns the edits that turn from into to: the generic
// adjacency reconcile that lets a long-lived engine's graph follow a mesh
// sequence in place. Vertex ids are stable across mesh steps and vertices
// are only ever added, so the script is: append the new vertices, then per
// vertex drop the edges to no longer has and add (or re-weight) the ones
// it gained.
func reconcile(from, to *graph.Graph) ([]edit, error) {
	if to.Order() < from.Order() {
		return nil, fmt.Errorf("reconcile: target has %d slots, source %d", to.Order(), from.Order())
	}
	var out []edit
	for v := from.Order(); v < to.Order(); v++ {
		out = append(out, edit{kind: addVertex, w: to.VertexWeight(graph.Vertex(v))})
	}
	for v := 0; v < to.Order(); v++ {
		u := graph.Vertex(v)
		if v < from.Order() {
			if from.Alive(u) != to.Alive(u) {
				return nil, fmt.Errorf("reconcile: vertex %d changed liveness", v)
			}
			if from.VertexWeight(u) != to.VertexWeight(u) {
				out = append(out, edit{kind: setWeight, u: u, w: to.VertexWeight(u)})
			}
			for _, x := range from.Neighbors(u) {
				if u < x && !to.HasEdge(u, x) {
					out = append(out, edit{kind: removeEdge, u: u, v: x})
				}
			}
		}
		ws := to.EdgeWeights(u)
		for i, x := range to.Neighbors(u) {
			if u >= x {
				continue
			}
			if v < from.Order() && int(x) < from.Order() {
				if w, ok := from.EdgeWeight(u, x); ok {
					if w != ws[i] {
						out = append(out, edit{kind: removeEdge, u: u, v: x}, edit{kind: addEdge, u: u, v: x, w: ws[i]})
					}
					continue
				}
			}
			out = append(out, edit{kind: addEdge, u: u, v: x, w: ws[i]})
		}
	}
	return out, nil
}

// sameGraph reports whether a and b have identical vertices, weights and
// adjacency (as sets, with weights).
func sameGraph(a, b *graph.Graph) error {
	if a.Order() != b.Order() || a.NumEdges() != b.NumEdges() || a.NumVertices() != b.NumVertices() {
		return fmt.Errorf("size mismatch: %d/%d/%d vs %d/%d/%d", a.Order(), a.NumVertices(), a.NumEdges(), b.Order(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.Order(); v++ {
		u := graph.Vertex(v)
		if a.Alive(u) != b.Alive(u) || a.VertexWeight(u) != b.VertexWeight(u) || a.Degree(u) != b.Degree(u) {
			return fmt.Errorf("vertex %d differs", v)
		}
		ws := a.EdgeWeights(u)
		for i, x := range a.Neighbors(u) {
			if w, ok := b.EdgeWeight(u, x); !ok || w != ws[i] {
				return fmt.Errorf("edge {%d,%d} differs", u, x)
			}
		}
	}
	return nil
}

// recordBurst applies k size-preserving edits to g — vertex-weight jitter
// and edge flips (remove + re-add at the same weight) — and returns them.
// Partition sizes stay intact, so a flat warm Repartition after the burst
// never enters a balancing stage: the op isolates the derived-state
// refresh (CSR patch, boundary/size/cut sync).
func recordBurst(g *graph.Graph, rng *rand.Rand, k int) ([]edit, error) {
	out := make([]edit, 0, 2*k)
	n := g.Order()
	for i := 0; i < k; i++ {
		v := graph.Vertex(rng.Intn(n))
		if i%3 == 0 || g.Degree(v) == 0 {
			out = append(out, edit{kind: setWeight, u: v, w: 1 + rng.Float64()})
			continue
		}
		us := g.Neighbors(v)
		u := us[rng.Intn(len(us))]
		w, _ := g.EdgeWeight(v, u)
		out = append(out, edit{kind: removeEdge, u: v, v: u}, edit{kind: addEdge, u: v, v: u, w: w})
	}
	return out, apply(g, out)
}
