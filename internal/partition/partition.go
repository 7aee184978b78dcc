// Package partition defines the partition-assignment representation and
// the quality metrics the paper reports: cutset totals, per-partition
// boundary costs (the table's Max/Min columns), partition weights, and
// load imbalance.
package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Unassigned marks vertices with no partition (dead slots, or new vertices
// before the assign phase).
const Unassigned int32 = -1

// Assignment maps each vertex slot to a partition in [0, P), or
// Unassigned. It deliberately stays a thin value type: algorithms pass and
// copy it freely.
type Assignment struct {
	Part []int32
	P    int
}

// New returns an all-Unassigned assignment for n vertex slots and p parts.
func New(n, p int) *Assignment {
	a := &Assignment{Part: make([]int32, n), P: p}
	for i := range a.Part {
		a.Part[i] = Unassigned
	}
	return a
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{Part: append([]int32(nil), a.Part...), P: a.P}
}

// Grow extends the assignment with Unassigned slots to cover n vertices.
func (a *Assignment) Grow(n int) {
	for len(a.Part) < n {
		a.Part = append(a.Part, Unassigned)
	}
}

// Of returns the partition of v, or Unassigned when out of range.
func (a *Assignment) Of(v graph.Vertex) int32 {
	if int(v) >= len(a.Part) {
		return Unassigned
	}
	return a.Part[v]
}

// Validate checks that every live vertex of g has a partition in [0, P)
// and that dead slots are Unassigned.
func (a *Assignment) Validate(g *graph.Graph) error {
	if len(a.Part) < g.Order() {
		return fmt.Errorf("partition: assignment covers %d slots, graph has %d", len(a.Part), g.Order())
	}
	for v := 0; v < g.Order(); v++ {
		p := a.Part[v]
		if g.Alive(graph.Vertex(v)) {
			if p < 0 || int(p) >= a.P {
				return fmt.Errorf("partition: live vertex %d has partition %d (P=%d)", v, p, a.P)
			}
		} else if p != Unassigned {
			return fmt.Errorf("partition: dead vertex %d has partition %d", v, p)
		}
	}
	return nil
}

// Weights returns the total vertex weight of each partition. Vertices
// beyond the assignment's coverage count as Unassigned.
func (a *Assignment) Weights(g *graph.Graph) []float64 {
	w := make([]float64, a.P)
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			continue
		}
		if p := a.Of(graph.Vertex(v)); p >= 0 {
			w[p] += g.VertexWeight(graph.Vertex(v))
		}
	}
	return w
}

// Sizes returns the live-vertex count of each partition. Vertices beyond
// the assignment's coverage count as Unassigned.
func (a *Assignment) Sizes(g *graph.Graph) []int {
	return a.SizesInto(make([]int, a.P), g)
}

// SizesInto fills s (which must have length a.P) with the live-vertex
// count of each partition and returns it, allocating nothing. Repeated
// callers (the balance stage loop) pass a reused buffer.
func (a *Assignment) SizesInto(s []int, g *graph.Graph) []int {
	for i := range s {
		s[i] = 0
	}
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			continue
		}
		if p := a.Of(graph.Vertex(v)); p >= 0 {
			s[p]++
		}
	}
	return s
}

// CutStats aggregates the paper's cutset columns.
type CutStats struct {
	// Total is the number of cut edges (each counted once) — the table's
	// "Total" column.
	Total int
	// TotalWeight is the summed weight of cut edges.
	TotalWeight float64
	// PerPart[q] is C(q): the weight of edges leaving partition q. The
	// table's Max and Min columns are the extremes of this vector.
	PerPart []float64
	// Max and Min are the extremes of PerPart over non-empty partitions.
	Max, Min float64
}

// Cut computes cutset statistics for assignment a on graph g by a full
// rescan — the brute-force oracle of the engine's tracked cut. Vertices
// that are Unassigned (including any beyond the assignment's coverage)
// contribute no cut edges.
//
// Each assigned live vertex's cut term — the weight of its arcs to
// assigned vertices of another partition — is added to its partition's
// PerPart entry and to the total, and the total (every cut edge seen from
// both ends) is halved at the end. Edge weights are integers whose total
// fits int32 (graph.MaxTotalEdgeWeight), so these are sums of integers:
// exact in any order, which is why the engine's tracked cut, summed from
// patched per-vertex terms, equals this rescan.
func Cut(g *graph.Graph, a *Assignment) CutStats {
	st := CutStats{PerPart: make([]float64, a.P)}
	arcs, weight := 0, 0.0
	for vi := 0; vi < g.Order(); vi++ {
		v := graph.Vertex(vi)
		pv := a.Of(v)
		if pv < 0 || !g.Alive(v) {
			continue
		}
		ws := g.EdgeWeights(v)
		var term float64
		for i, u := range g.Neighbors(v) {
			if pu := a.Of(u); pu >= 0 && pu != pv {
				term += ws[i]
				arcs++
			}
		}
		st.PerPart[pv] += term
		weight += term
	}
	st.Finish(arcs, weight, a.Sizes(g))
	return st
}

// Finish completes a report whose PerPart holds the summed per-vertex cut
// terms: arcs and weight are the count and weight of cut arcs over all
// vertices — every cut edge from both ends, so both are halved — and Max
// and Min range over the partitions sizes says are non-empty.
func (st *CutStats) Finish(arcs int, weight float64, sizes []int) {
	st.Total, st.TotalWeight = arcs/2, weight/2
	st.Max, st.Min = math.Inf(-1), math.Inf(1)
	for q, c := range st.PerPart {
		if sizes[q] > 0 {
			st.Max, st.Min = max(st.Max, c), min(st.Min, c)
		}
	}
	if math.IsInf(st.Max, -1) {
		st.Max, st.Min = 0, 0
	}
}

// Imbalance returns max(weight)/mean(weight) over partitions; 1.0 is
// perfectly balanced. An assignment with an empty partition still gets a
// finite value (its max is over the others). Degenerate inputs — an
// empty or zero-total-weight graph, or an assignment with no partitions —
// would divide by a zero mean; they report 1.0 (trivially balanced)
// instead of NaN so monitoring ratios stay finite.
func Imbalance(g *graph.Graph, a *Assignment) float64 {
	if a.P <= 0 {
		return 1
	}
	w := a.Weights(g)
	var sum, max float64
	for _, x := range w {
		sum += x
		if x > max {
			max = x
		}
	}
	mean := sum / float64(a.P)
	if !(mean > 0) {
		return 1
	}
	return max / mean
}

// Targets distributes total integer load n over p partitions as evenly as
// possible: the first n%p partitions get ⌈n/p⌉, the rest ⌊n/p⌋. These are
// the balance-LP right-hand sides (the paper's per-partition average μ,
// made integral).
func Targets(n, p int) []int {
	return TargetsInto(make([]int, p), n, p)
}

// TargetsInto is Targets into a reused buffer of capacity ≥ p, for
// allocation-free callers; it returns the filled buffer.
func TargetsInto(t []int, n, p int) []int {
	t = t[:p]
	q, r := n/p, n%p
	for i := range t {
		t[i] = q
		if i < r {
			t[i]++
		}
	}
	return t
}

// Balanced reports whether partition sizes match some Targets(n,p)
// distribution, i.e. max−min ≤ 1 over all partitions.
func Balanced(sizes []int) bool {
	if len(sizes) == 0 {
		return true
	}
	mn, mx := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < mn {
			mn = s
		}
		if s > mx {
			mx = s
		}
	}
	return mx-mn <= 1
}
