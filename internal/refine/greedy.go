package refine

import (
	"repro/internal/graph"
	"repro/internal/partition"
)

// Greedy is a sequential boundary-refinement baseline in the
// Kernighan–Lin/Fiduccia–Mattheyses family (the "mincut-based methods" of
// the paper's §1 heuristics list): repeatedly move the single
// highest-gain boundary vertex to its best neighboring partition, subject
// to the FM balance criterion that no partition drift more than maxSkew
// vertices from its ideal target size, each vertex moving at most once.
// It serves as the ablation comparator for the LP refinement —
// centralised and inherently sequential where the LP phase is
// parallelizable.
//
// It modifies a in place and returns the number of vertices moved. The
// result is a pure function of (g, a): moves are pushed and their gains
// rechecked by PushMoves and MoveGain, and the heap's order is total.
func Greedy(g *graph.Graph, a *partition.Assignment, maxSkew int) int {
	if maxSkew < 1 {
		maxSkew = 1
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	moved := 0
	lockedMove := make([]bool, g.Order())

	var h MoveHeap
	conn := make([]float64, a.P)
	g.ForEachVertex(func(v graph.Vertex) { h.PushMoves(g, a.Part, v, conn) })
	for len(h) > 0 {
		it := h.Pop()
		if lockedMove[it.V] {
			continue
		}
		from := a.Part[it.V]
		if from == it.To {
			continue
		}
		// FM balance guard: neither endpoint may drift past maxSkew from
		// its target after the move.
		if sizes[from]-1 < targets[from]-maxSkew || sizes[it.To]+1 > targets[it.To]+maxSkew {
			continue
		}
		// Gain may be stale; recompute and verify.
		if MoveGain(g, a.Part, it.V, it.To) <= 0 {
			continue
		}
		a.Part[it.V] = it.To
		sizes[from]--
		sizes[it.To]++
		lockedMove[it.V] = true
		moved++
		// Neighbors' gains changed; repush the unlocked ones.
		for _, u := range g.Neighbors(it.V) {
			if !lockedMove[u] {
				h.PushMoves(g, a.Part, u, conn)
			}
		}
	}
	return moved
}

// Move is a candidate refinement move: vertex V to partition To, which
// lowers the cut by Gain.
type Move struct {
	Gain float64
	V    graph.Vertex
	To   int32
}

// MoveHeap is the max-gain heap Greedy and the multilevel hierarchy's
// per-level refiner pop moves from. Its order is total — gain
// descending, then vertex, then target — so the pop sequence depends
// only on what was pushed. The zero value is empty; h[:0] empties it
// and keeps the storage.
type MoveHeap []Move

func (h MoveHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.Gain != b.Gain {
		return a.Gain > b.Gain
	}
	return a.V < b.V || a.V == b.V && a.To < b.To
}

// Push adds m.
func (h *MoveHeap) Push(m Move) {
	s := append(*h, m)
	for i := len(s) - 1; i > 0 && s.less(i, (i-1)/2); i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
	*h = s
}

// Pop removes and returns the first move under the order; h must not be
// empty.
func (h *MoveHeap) Pop() Move {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s = s[n], s[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
	}
	*h = s
	return top
}

// PushMoves pushes every move of v that lowers the cut, in partition
// order: the gain of a move to q is the weight of v's arcs into q less
// that of its arcs into its own partition, each summed in adjacency
// order. conn is P-long scratch. A dead or unassigned v has no moves.
func (h *MoveHeap) PushMoves(g *graph.Graph, part []int32, v graph.Vertex, conn []float64) {
	own := part[v]
	if !g.Alive(v) || own < 0 {
		return
	}
	clear(conn)
	ws := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		if q := part[u]; q >= 0 {
			conn[q] += ws[i]
		}
	}
	for q, c := range conn {
		if int32(q) != own && c > conn[own] {
			h.Push(Move{Gain: c - conn[own], V: v, To: int32(q)})
		}
	}
}

// MoveGain returns the cut gain of moving v to partition to, summed the
// way PushMoves sums it, so the two agree bit for bit.
func MoveGain(g *graph.Graph, part []int32, v graph.Vertex, to int32) float64 {
	own := part[v]
	var in, out float64
	ws := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		switch part[u] {
		case to:
			out += ws[i]
		case own:
			in += ws[i]
		}
	}
	return out - in
}
