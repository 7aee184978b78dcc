// Package graph provides the mutable, undirected, weighted graph that all
// partitioning code in this repository operates on.
//
// The representation is an adjacency list with parallel edge-weight lists.
// Vertices are dense int32 identifiers. Incremental updates — the heart of
// the incremental-partitioning problem — are supported directly: vertices
// and edges may be added or removed at any time. Removed vertices leave a
// tombstone (they stay addressable but report Alive() == false) so that
// existing vertex identifiers remain stable across edits; Compact produces
// a dense copy when stability is no longer needed.
package graph

import (
	"fmt"
	"sort"
)

// Vertex is a dense vertex identifier.
type Vertex = int32

// Graph is a mutable undirected graph with float64 vertex and edge weights.
// The zero value is an empty graph ready for use.
//
// Every undirected edge {u,v} is stored twice, once in each endpoint's
// adjacency list. Invariants (checked by Validate):
//   - adjacency is symmetric with matching weights,
//   - no self-loops and no parallel edges,
//   - dead vertices have empty adjacency.
//
// Every mutation advances an edit epoch and records the touched vertices
// in a bounded journal, letting long-lived consumers (the repartitioning
// engine) refresh derived state — CSR snapshots, partition-boundary sets —
// incrementally instead of rescanning the whole graph.
type Graph struct {
	adj   [][]Vertex  // adjacency lists
	ew    [][]float64 // edge weights, parallel to adj
	vw    []float64   // vertex weights
	alive []bool      // tombstone flags
	m     int         // number of live undirected edges
	dead  int         // number of dead vertices

	epoch        uint64   // advanced by every mutation
	journalV     []Vertex // touched vertices, parallel to journalE
	journalE     []uint64 // epoch at which each touch happened
	journalFloor uint64   // touches at epochs ≤ floor have been dropped
}

// maxJournal bounds the edit journal; once exceeded the journal is reset
// and TouchedSince reports inexact, forcing consumers to rescan. The bound
// keeps bulk loads (which touch every vertex many times) from hoarding
// memory for a journal nobody could use profitably.
const maxJournal = 1 << 14

// Epoch returns the current edit epoch. It advances on every mutation
// (vertex/edge insert or delete, weight update, adjacency reorder), so
// derived snapshots are stale exactly when the epoch has moved.
func (g *Graph) Epoch() uint64 { return g.epoch }

// touch advances the epoch and journals the given vertices as touched.
func (g *Graph) touch(vs ...Vertex) {
	g.epoch++
	if len(g.journalV)+len(vs) > maxJournal {
		g.journalV = g.journalV[:0]
		g.journalE = g.journalE[:0]
		g.journalFloor = g.epoch - 1
	}
	for _, v := range vs {
		g.journalV = append(g.journalV, v)
		g.journalE = append(g.journalE, g.epoch)
	}
}

// TouchedSince appends to buf the vertices touched by mutations after the
// given epoch and returns the extended slice. exact is false when the
// journal no longer reaches back that far (it is bounded); callers must
// then treat every vertex as potentially touched. Vertices may repeat.
func (g *Graph) TouchedSince(epoch uint64, buf []Vertex) (touched []Vertex, exact bool) {
	if epoch < g.journalFloor {
		return buf, false
	}
	// journalE is nondecreasing: binary-search the first entry past epoch
	// so retrieving a few recent touches costs O(log J + answer), not a
	// scan of the whole journal.
	lo := sort.Search(len(g.journalE), func(i int) bool { return g.journalE[i] > epoch })
	return append(buf, g.journalV[lo:]...), true
}

// New returns an empty graph with capacity hints for n vertices.
func New(n int) *Graph {
	return &Graph{
		adj:   make([][]Vertex, 0, n),
		ew:    make([][]float64, 0, n),
		vw:    make([]float64, 0, n),
		alive: make([]bool, 0, n),
	}
}

// NewWithVertices returns a graph with n live vertices of unit weight and
// no edges.
func NewWithVertices(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(1)
	}
	return g
}

// Order returns the total number of vertex slots, including dead ones.
// Valid vertex identifiers are in [0, Order()).
func (g *Graph) Order() int { return len(g.adj) }

// NumVertices returns the number of live vertices.
func (g *Graph) NumVertices() int { return len(g.adj) - g.dead }

// NumEdges returns the number of live undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Alive reports whether v is a live vertex.
func (g *Graph) Alive(v Vertex) bool {
	return v >= 0 && int(v) < len(g.alive) && g.alive[v]
}

// AddVertex adds a new live vertex with the given weight and returns its
// identifier.
func (g *Graph) AddVertex(weight float64) Vertex {
	v := Vertex(len(g.adj))
	g.adj = append(g.adj, nil)
	g.ew = append(g.ew, nil)
	g.vw = append(g.vw, weight)
	g.alive = append(g.alive, true)
	g.touch(v)
	return v
}

// RemoveVertex deletes v and all its incident edges. Removing an already
// dead or out-of-range vertex is an error.
func (g *Graph) RemoveVertex(v Vertex) error {
	if !g.Alive(v) {
		return fmt.Errorf("graph: remove vertex %d: not a live vertex", v)
	}
	// Detach from all neighbors; the former neighbors are journaled too,
	// since their boundary status may change with the edges.
	g.touch(v)
	for _, u := range g.adj[v] {
		g.removeArc(u, v)
		g.m--
		g.touch(u)
	}
	g.adj[v] = nil
	g.ew[v] = nil
	g.alive[v] = false
	g.dead++
	return nil
}

// VertexWeight returns the weight of v.
func (g *Graph) VertexWeight(v Vertex) float64 { return g.vw[v] }

// SetVertexWeight updates the weight of v.
func (g *Graph) SetVertexWeight(v Vertex, w float64) {
	g.vw[v] = w
	g.touch(v)
}

// Degree returns the number of live neighbors of v.
func (g *Graph) Degree(v Vertex) int { return len(g.adj[v]) }

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified; it is invalidated by mutations.
func (g *Graph) Neighbors(v Vertex) []Vertex { return g.adj[v] }

// EdgeWeights returns the edge-weight list of v, parallel to Neighbors(v).
// The returned slice is owned by the graph and must not be modified.
func (g *Graph) EdgeWeights(v Vertex) []float64 { return g.ew[v] }

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v Vertex) bool {
	if !g.Alive(u) || !g.Alive(v) {
		return false
	}
	// Scan the shorter list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u,v} and whether it exists.
func (g *Graph) EdgeWeight(u, v Vertex) (float64, bool) {
	if !g.Alive(u) || !g.Alive(v) {
		return 0, false
	}
	for i, w := range g.adj[u] {
		if w == v {
			return g.ew[u][i], true
		}
	}
	return 0, false
}

// AddEdge inserts the undirected edge {u,v} with the given weight.
// Self-loops, dead endpoints and duplicate edges are errors.
func (g *Graph) AddEdge(u, v Vertex, weight float64) error {
	if u == v {
		return fmt.Errorf("graph: add edge: self-loop at %d", u)
	}
	if !g.Alive(u) || !g.Alive(v) {
		return fmt.Errorf("graph: add edge {%d,%d}: dead endpoint", u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: add edge {%d,%d}: already present", u, v)
	}
	g.addEdgeRaw(u, v, weight)
	return nil
}

// AddEdgeUnchecked inserts the undirected edge {u,v} without the duplicate
// scan AddEdge performs, making bulk construction O(1) per edge instead of
// O(deg). The caller must guarantee u ≠ v, both endpoints are live, and
// the edge is not already present — Validate detects violations. Builders
// that generate each edge exactly once (grids, meshes, subgraph copies)
// use this path.
func (g *Graph) AddEdgeUnchecked(u, v Vertex, weight float64) {
	g.addEdgeRaw(u, v, weight)
}

// AddEdgeIfAbsent inserts {u,v} if it is not already present, reporting
// whether it inserted. Unlike the AddEdge error path it performs a single
// duplicate scan. Self-loops and dead endpoints are never inserted.
func (g *Graph) AddEdgeIfAbsent(u, v Vertex, weight float64) bool {
	if u == v || g.HasEdge(u, v) || !g.Alive(u) || !g.Alive(v) {
		return false
	}
	g.addEdgeRaw(u, v, weight)
	return true
}

// ReserveAdjacency grows v's adjacency and edge-weight capacity to hold
// at least n arcs, so a builder that knows a vertex's final degree
// appends to it without regrowing. The graph's content is unchanged:
// nothing is journaled and the epoch does not move. Only v's own rows
// are written, so builders may reserve distinct vertices concurrently
// (with no other mutation in flight).
func (g *Graph) ReserveAdjacency(v Vertex, n int) {
	if cap(g.adj[v]) < n {
		g.adj[v] = append(make([]Vertex, 0, n), g.adj[v]...)
		g.ew[v] = append(make([]float64, 0, n), g.ew[v]...)
	}
}

func (g *Graph) addEdgeRaw(u, v Vertex, weight float64) {
	g.adj[u] = append(g.adj[u], v)
	g.ew[u] = append(g.ew[u], weight)
	g.adj[v] = append(g.adj[v], u)
	g.ew[v] = append(g.ew[v], weight)
	g.m++
	g.touch(u, v)
}

// RemoveEdge deletes the undirected edge {u,v}.
func (g *Graph) RemoveEdge(u, v Vertex) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: remove edge {%d,%d}: not present", u, v)
	}
	g.removeArc(u, v)
	g.removeArc(v, u)
	g.m--
	g.touch(u, v)
	return nil
}

// removeArc drops v from u's adjacency list (directed half of an edge).
func (g *Graph) removeArc(u, v Vertex) {
	a, w := g.adj[u], g.ew[u]
	for i, x := range a {
		if x == v {
			last := len(a) - 1
			a[i], w[i] = a[last], w[last]
			g.adj[u] = a[:last]
			g.ew[u] = w[:last]
			return
		}
	}
}

// Vertices returns the identifiers of all live vertices in increasing order.
// It allocates; hot loops should use ForEachVertex or iterate [0, Order())
// with Alive instead.
func (g *Graph) Vertices() []Vertex {
	out := make([]Vertex, 0, g.NumVertices())
	for v := range g.adj {
		if g.alive[v] {
			out = append(out, Vertex(v))
		}
	}
	return out
}

// ForEachVertex calls fn for every live vertex in increasing order without
// allocating. fn must not mutate the graph.
func (g *Graph) ForEachVertex(fn func(Vertex)) {
	for v, ok := range g.alive {
		if ok {
			fn(Vertex(v))
		}
	}
}

// TotalVertexWeight returns the sum of live vertex weights.
func (g *Graph) TotalVertexWeight() float64 {
	var s float64
	for v, ok := range g.alive {
		if ok {
			s += g.vw[v]
		}
	}
	return s
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:   make([][]Vertex, len(g.adj)),
		ew:    make([][]float64, len(g.ew)),
		vw:    append([]float64(nil), g.vw...),
		alive: append([]bool(nil), g.alive...),
		m:     g.m,
		dead:  g.dead,
		// The journal is not copied: mark it fully dropped so TouchedSince
		// on the clone never claims exact knowledge it does not have.
		epoch:        g.epoch,
		journalFloor: g.epoch,
	}
	for v := range g.adj {
		c.adj[v] = append([]Vertex(nil), g.adj[v]...)
		c.ew[v] = append([]float64(nil), g.ew[v]...)
	}
	return c
}

// Compact returns a dense copy with dead vertex slots removed, along with
// old→new and new→old identifier mappings. old→new is −1 for dead slots.
func (g *Graph) Compact() (c *Graph, oldToNew []Vertex, newToOld []Vertex) {
	oldToNew = make([]Vertex, len(g.adj))
	newToOld = make([]Vertex, 0, g.NumVertices())
	for v := range g.adj {
		if g.alive[v] {
			oldToNew[v] = Vertex(len(newToOld))
			newToOld = append(newToOld, Vertex(v))
		} else {
			oldToNew[v] = -1
		}
	}
	c = New(len(newToOld))
	for _, old := range newToOld {
		c.AddVertex(g.vw[old])
	}
	for _, old := range newToOld {
		nu := oldToNew[old]
		for i, u := range g.adj[old] {
			nv := oldToNew[u]
			if nu < nv { // add each undirected edge once
				// Unchecked: source edges are unique and endpoints live.
				c.AddEdgeUnchecked(nu, nv, g.ew[old][i])
			}
		}
	}
	return c, oldToNew, newToOld
}

// adjSorter sorts one adjacency list in place, swapping the parallel
// weight list alongside. A single instance is reused across vertices so
// the sort.Interface conversion costs one allocation per SortAdjacency
// call, not per vertex.
type adjSorter struct {
	a []Vertex
	w []float64
}

func (s *adjSorter) Len() int           { return len(s.a) }
func (s *adjSorter) Less(i, j int) bool { return s.a[i] < s.a[j] }
func (s *adjSorter) Swap(i, j int) {
	s.a[i], s.a[j] = s.a[j], s.a[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// SortAdjacency sorts every adjacency list (and its weights) in place by
// neighbor identifier, making iteration order deterministic regardless of
// edit order. Reordering invalidates CSR snapshots, so the epoch advances.
func (g *Graph) SortAdjacency() {
	var s adjSorter
	for v := range g.adj {
		s.a, s.w = g.adj[v], g.ew[v]
		sort.Sort(&s)
	}
	// Membership is untouched but every row layout changed without any
	// vertex being journaled: advance the epoch and drop the journal to
	// the new floor, so journal consumers (the partial CSR patch) see
	// the gap as inexact and rebuild rather than trusting stale rows.
	g.epoch++
	g.journalV = g.journalV[:0]
	g.journalE = g.journalE[:0]
	g.journalFloor = g.epoch
}

// Validate checks structural invariants, returning the first violation.
func (g *Graph) Validate() error {
	count := 0
	for v := range g.adj {
		if !g.alive[v] {
			if len(g.adj[v]) != 0 {
				return fmt.Errorf("graph: dead vertex %d has %d neighbors", v, len(g.adj[v]))
			}
			continue
		}
		seen := make(map[Vertex]bool, len(g.adj[v]))
		for i, u := range g.adj[v] {
			if u == Vertex(v) {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if !g.Alive(u) {
				return fmt.Errorf("graph: edge {%d,%d} to dead vertex", v, u)
			}
			if seen[u] {
				return fmt.Errorf("graph: parallel edge {%d,%d}", v, u)
			}
			seen[u] = true
			w, ok := g.EdgeWeight(u, Vertex(v))
			if !ok {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, u)
			}
			if w != g.ew[v][i] {
				return fmt.Errorf("graph: weight mismatch on edge {%d,%d}: %g vs %g", v, u, g.ew[v][i], w)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count mismatch: counted %d arcs, expected %d", count, 2*g.m)
	}
	return nil
}
