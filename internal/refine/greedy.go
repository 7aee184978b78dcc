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
// result is a pure function of (g, a): moves are pushed from a
// connectivity table (Conn), patched by ±w as each move is applied, and
// their gains rechecked from it, and the heap's order is total.
func Greedy(g *graph.Graph, a *partition.Assignment, maxSkew int) int {
	if maxSkew < 1 {
		maxSkew = 1
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	moved := 0
	lockedMove := make([]bool, g.Order())

	var h MoveHeap
	var c Conn
	c.Reset(g.Order())
	c.Reserve(a.P)
	g.ForEachVertex(func(v graph.Vertex) { h.PushMoves(&c, g, a.Part, v) })
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
		// Gain may be stale; recheck it.
		if c.Gain(it.V, it.To) <= 0 {
			continue
		}
		c.Move(g, a.Part, it.V, it.To)
		sizes[from]--
		sizes[it.To]++
		lockedMove[it.V] = true
		moved++
		// Neighbors' gains changed; repush the unlocked ones.
		for _, u := range g.Neighbors(it.V) {
			if !lockedMove[u] {
				h.PushMoves(&c, g, a.Part, u)
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

// PushMoves pushes every move of v that lowers the cut, from its entries
// in c under the view part: the gain of a move to q is the weight of v's
// arcs into q less that of its arcs into its own partition. A stale slot
// is first filled from v's row in g. A dead or unassigned v has no moves.
// It returns the arcs read: v's row when it was filled, else none.
func (h *MoveHeap) PushMoves(c *Conn, g *graph.Graph, part []int32, v graph.Vertex) int {
	if !g.Alive(v) || part[v] < 0 {
		return 0
	}
	read := 0
	if c.Stale(v) {
		read = c.FillGraph(g, part, v)
	}
	in := c.In(v)
	for _, x := range c.Entries(v) {
		if x.Part >= 0 && x.Wt > in {
			h.Push(Move{Gain: float64(x.Wt - in), V: v, To: x.Part})
		}
	}
	return read
}
