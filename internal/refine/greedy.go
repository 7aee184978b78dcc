package refine

import (
	"container/heap"

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
// result is a pure function of (g, a): a vertex's connectivity is summed
// per partition in a P-length slice and its moves pushed in partition
// order, and the heap breaks gain ties by vertex, then target.
func Greedy(g *graph.Graph, a *partition.Assignment, maxMoves, maxSkew int) int {
	if maxMoves <= 0 {
		maxMoves = g.NumVertices()
	}
	if maxSkew < 1 {
		maxSkew = 1
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	moved := 0
	lockedMove := make([]bool, g.Order())

	// Max-heap on gain.
	h := &gainHeap{}
	out := make([]float64, a.P)
	push := func(v graph.Vertex) {
		pv := a.Part[v]
		var in float64
		ws := g.EdgeWeights(v)
		for k, u := range g.Neighbors(v) {
			pu := a.Part[u]
			if pu == pv {
				in += ws[k]
			} else if pu >= 0 {
				out[pu] += ws[k]
			}
		}
		for j, o := range out {
			if o-in > 0 {
				heap.Push(h, gainItem{v, int32(j), o - in})
			}
			out[j] = 0
		}
	}
	g.ForEachVertex(push)
	for h.Len() > 0 && moved < maxMoves {
		it := heap.Pop(h).(gainItem)
		if lockedMove[it.v] {
			continue
		}
		from := a.Part[it.v]
		if from == it.to {
			continue
		}
		// FM balance guard: neither endpoint may drift past maxSkew from
		// its target after the move.
		if sizes[from]-1 < targets[from]-maxSkew || sizes[it.to]+1 > targets[it.to]+maxSkew {
			continue
		}
		// Gain may be stale; recompute and verify.
		var in float64
		var out float64
		ws := g.EdgeWeights(it.v)
		for k, u := range g.Neighbors(it.v) {
			pu := a.Part[u]
			if pu == from {
				in += ws[k]
			} else if pu == it.to {
				out += ws[k]
			}
		}
		if out-in <= 0 {
			continue
		}
		a.Part[it.v] = it.to
		sizes[from]--
		sizes[it.to]++
		lockedMove[it.v] = true
		moved++
		// Neighbors' gains changed; repush the unlocked ones.
		for _, u := range g.Neighbors(it.v) {
			if !lockedMove[u] {
				push(u)
			}
		}
	}
	return moved
}

// gainItem is a candidate move in the greedy refinement heap.
type gainItem struct {
	v    graph.Vertex
	to   int32
	gain float64
}

type gainHeap []gainItem

func (h gainHeap) Len() int { return len(h) }

// Less orders by gain descending, then vertex, then target: a total
// order, so the pop sequence does not depend on push order.
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].v != h[j].v {
		return h[i].v < h[j].v
	}
	return h[i].to < h[j].to
}
func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)   { *h = append(*h, x.(gainItem)) }
func (h *gainHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
