// Package graph provides the mutable, undirected, weighted graph that all
// partitioning code in this repository operates on.
//
// The representation is an adjacency list with parallel edge-weight lists.
// Vertices are dense int32 identifiers. Incremental updates — the heart of
// the incremental-partitioning problem — are supported directly: vertices
// and edges may be added or removed at any time. Removed vertices leave a
// tombstone (they stay addressable but report Alive() == false) so that
// existing vertex identifiers remain stable across edits; InducedSubgraph
// over Vertices() produces a dense copy when stability is no longer needed.
//
// Edge weights are integers ≥ 0 whose total is at most MaxTotalEdgeWeight
// (2³¹−1), carried as float64 in the API and stored as int32 in a CSR
// snapshot. Every sum a consumer forms over them — a vertex's weight into a
// partition, a coarse level's aggregated edge, a cut — is a sum of
// integers within int32: exact, whatever order it is added in.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Vertex is a dense vertex identifier.
type Vertex = int32

// Graph is a mutable undirected graph with float64 vertex weights and
// integer edge weights (carried as float64 in the public API; see
// MaxTotalEdgeWeight). The zero value is an empty graph ready for use.
//
// Every undirected edge {u,v} is stored twice, once in each endpoint's
// adjacency list. Invariants (checked by Validate):
//   - adjacency is symmetric with matching weights,
//   - no self-loops and no parallel edges,
//   - dead vertices have empty adjacency,
//   - every edge weight is an integer ≥ 0, and they sum to at most
//     MaxTotalEdgeWeight.
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
	wsum  float64     // total weight of the live edges (an exact integer)

	epoch        uint64   // advanced by every mutation
	journalV     []Vertex // touched vertices, parallel to journalE
	journalE     []uint64 // epoch at which each touch happened
	journalFloor uint64   // touches at epochs ≤ floor have been dropped
}

// MaxTotalEdgeWeight bounds the total edge weight of a graph. An edge
// weight is an integer, so with the total within int32 every weight a CSR
// snapshot stores — and every sum of them: a vertex's weight toward a
// partition, a coarse level's aggregated edge, a cut — is an exact int32.
const MaxTotalEdgeWeight = math.MaxInt32

// ErrEdgeWeight is matched (errors.Is) by the error of an edge weight that
// is not an integer ≥ 0, or that would raise the graph's total edge weight
// past MaxTotalEdgeWeight.
var ErrEdgeWeight = errors.New("graph: edge weight must be a non-negative integer")

// checkEdgeWeight refuses a weight that is not an integer in
// [0, MaxTotalEdgeWeight] (NaN and ±Inf included).
func checkEdgeWeight(w float64) error {
	if !(w >= 0 && w <= MaxTotalEdgeWeight && w == math.Trunc(w)) {
		return fmt.Errorf("%w: %g", ErrEdgeWeight, w)
	}
	return nil
}

// CheckEdgeWeights returns an error matching ErrEdgeWeight unless k more
// edges of weight w would be accepted by AddEdge: w an integer ≥ 0 and
// the total edge weight still within MaxTotalEdgeWeight.
func (g *Graph) CheckEdgeWeights(w float64, k int) error {
	if err := checkEdgeWeight(w); err != nil {
		return err
	}
	if g.wsum+float64(k)*w > MaxTotalEdgeWeight {
		return fmt.Errorf("%w: %d edges of weight %g would raise the total edge weight %g past %d", ErrEdgeWeight, k, w, g.wsum, MaxTotalEdgeWeight)
	}
	return nil
}

// maxJournal bounds the edit journal; once exceeded the journal is reset
// and TouchedSince reports inexact, forcing consumers to rescan. The bound
// keeps bulk loads (which touch every vertex many times) from hoarding
// memory for a journal nobody could use profitably.
const maxJournal = 1 << 14

// Epoch returns the current edit epoch. It advances on every mutation
// (vertex/edge insert or delete, weight update), so derived snapshots
// are stale exactly when the epoch has moved.
func (g *Graph) Epoch() uint64 { return g.epoch }

// touch advances the epoch and journals the given vertices as touched.
func (g *Graph) touch(vs ...Vertex) {
	if g.advance(len(vs)) {
		for _, v := range vs {
			g.record(v)
		}
	}
}

// advance opens the epoch of a mutation touching n vertices and reports
// whether to journal them: a journal they would push past maxJournal is
// dropped to the previous epoch or, when n alone passes it, to the new
// one with nothing recorded.
func (g *Graph) advance(n int) bool {
	g.epoch++
	if len(g.journalV)+n > maxJournal {
		g.journalV, g.journalE = g.journalV[:0], g.journalE[:0]
		g.journalFloor = g.epoch - 1
		if n > maxJournal {
			g.journalFloor = g.epoch
		}
	}
	return n <= maxJournal
}

// record journals v as touched at the current epoch.
func (g *Graph) record(v Vertex) {
	g.journalV = append(g.journalV, v)
	g.journalE = append(g.journalE, g.epoch)
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
	for i, u := range g.adj[v] {
		g.removeArc(u, v)
		g.m--
		g.wsum -= g.ew[v][i]
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
// Self-loops, dead endpoints and duplicate edges are errors, and so is a
// weight CheckEdgeWeights refuses (matching ErrEdgeWeight).
func (g *Graph) AddEdge(u, v Vertex, weight float64) error {
	if err := g.CheckEdgeWeights(weight, 1); err != nil {
		return fmt.Errorf("graph: add edge {%d,%d}: %w", u, v, err)
	}
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
// O(deg). The caller must guarantee u ≠ v, both endpoints are live, the
// edge is not already present and the weight passes CheckEdgeWeights —
// Validate detects violations. Builders
// that generate each edge exactly once (grids, meshes, subgraph copies)
// use this path.
func (g *Graph) AddEdgeUnchecked(u, v Vertex, weight float64) {
	g.addEdgeRaw(u, v, weight)
}

// AddEdgeIfAbsent inserts {u,v} if it is not already present, reporting
// whether it inserted. Unlike the AddEdge error path it performs a single
// duplicate scan. Self-loops and dead endpoints are never inserted; the
// weight is the caller's to check (CheckEdgeWeights), as for
// AddEdgeUnchecked.
func (g *Graph) AddEdgeIfAbsent(u, v Vertex, weight float64) bool {
	if u == v || g.HasEdge(u, v) || !g.Alive(u) || !g.Alive(v) {
		return false
	}
	g.addEdgeRaw(u, v, weight)
	return true
}

// AppendRows appends len(vw) vertices in one mutation, the first at
// Order(): new vertex i weighs vw[i] and its row is adj[off[i]:off[i+1]]
// with weights ew[off[i]:off[i+1]] (off runs from 0 to len(adj)). Every
// arc must join two new vertices and be listed in both rows with one
// weight, and the weights must keep the total edge weight within
// MaxTotalEdgeWeight. The graph keeps adj and ew as one slab of rows, each capped at
// its end, so a row grown later reallocates alone. Nothing is checked
// (Validate is the oracle). The epoch advances once, and the journal
// gets the new vertices.
func (g *Graph) AppendRows(vw []float64, off []int, adj []Vertex, ew []float64) {
	base, k := Vertex(len(g.adj)), len(vw)
	g.adj, g.ew, g.alive = slices.Grow(g.adj, k), slices.Grow(g.ew, k), slices.Grow(g.alive, k)
	g.vw = append(g.vw, vw...)
	for i := 0; i < k; i++ {
		lo, hi := off[i], off[i+1]
		g.adj = append(g.adj, adj[lo:hi:hi])
		g.ew = append(g.ew, ew[lo:hi:hi])
		g.alive = append(g.alive, true)
	}
	g.m += len(adj) / 2
	var ws float64
	for _, w := range ew {
		ws += w
	}
	g.wsum += ws / 2
	if g.advance(k) {
		g.journalV, g.journalE = slices.Grow(g.journalV, k), slices.Grow(g.journalE, k)
		for i := 0; i < k; i++ {
			g.record(base + Vertex(i))
		}
	}
}

func (g *Graph) addEdgeRaw(u, v Vertex, weight float64) {
	g.adj[u] = append(g.adj[u], v)
	g.ew[u] = append(g.ew[u], weight)
	g.adj[v] = append(g.adj[v], u)
	g.ew[v] = append(g.ew[v], weight)
	g.m++
	g.wsum += weight
	g.touch(u, v)
}

// RemoveEdge deletes the undirected edge {u,v}.
func (g *Graph) RemoveEdge(u, v Vertex) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: remove edge {%d,%d}: not present", u, v)
	}
	g.wsum -= g.removeArc(u, v)
	g.removeArc(v, u)
	g.m--
	g.touch(u, v)
	return nil
}

// removeArc drops v from u's adjacency list (directed half of an edge)
// and returns the arc's weight.
func (g *Graph) removeArc(u, v Vertex) float64 {
	a, w := g.adj[u], g.ew[u]
	for i, x := range a {
		if x == v {
			wt, last := w[i], len(a)-1
			a[i], w[i] = a[last], w[last]
			g.adj[u] = a[:last]
			g.ew[u] = w[:last]
			return wt
		}
	}
	return 0
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
		wsum:  g.wsum,
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

// Validate checks structural invariants, returning the first violation.
// A weight that is not an integer ≥ 0, or weights summing past
// MaxTotalEdgeWeight, are errors matching ErrEdgeWeight.
func (g *Graph) Validate() error {
	count, total := 0, 0.0
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
			if err := checkEdgeWeight(g.ew[v][i]); err != nil {
				return fmt.Errorf("graph: edge {%d,%d}: %w", v, u, err)
			}
			w, ok := g.EdgeWeight(u, Vertex(v))
			if !ok {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, u)
			}
			if w != g.ew[v][i] {
				return fmt.Errorf("graph: weight mismatch on edge {%d,%d}: %g vs %g", v, u, g.ew[v][i], w)
			}
			if Vertex(v) < u {
				total += w
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count mismatch: counted %d arcs, expected %d", count, 2*g.m)
	}
	if total > MaxTotalEdgeWeight {
		return fmt.Errorf("%w: total edge weight %g exceeds %d", ErrEdgeWeight, total, MaxTotalEdgeWeight)
	}
	if total != g.wsum {
		return fmt.Errorf("graph: total edge weight %g, tracked %g", total, g.wsum)
	}
	return nil
}
