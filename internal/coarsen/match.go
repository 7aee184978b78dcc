package coarsen

// match.go holds the hierarchy's matcher: the greedy heavy-edge matching
// of the hierarchy's level build, computed by the suitor algorithm, with
// the two-hop pass for the singletons it strands.

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// edgeHash is a fixed 64-bit mix of an undirected edge's endpoints —
// the matcher's tie-break among equal-weight edges, and the one the
// TestHierarchyLocked digests were recorded under. It is a bijection
// (the endpoints pack into 64 bits, lower id first, and the
// xorshift-multiply mix is invertible), so no two edges tie and the
// edge order is strict; it is a pure function of the graph, so the
// order is the same on every run.
func edgeHash(a, b graph.Vertex) uint64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(uint32(a))<<32 | uint64(uint32(b))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// matcher is the deterministic heavy-edge matcher of the hierarchy's
// level build.
//
// Its first pass is the greedy matching of the free vertices'
// same-partition edges under a strict total edge order (weight
// descending, then edgeHash ascending): the edges taken heaviest first,
// each one matched when both its ends are still free. The suitor
// algorithm (Manne & Halappanavar, IPDPS 2014) computes it without
// sorting the edges: every free vertex courts its best neighbour whose
// current suitor it beats, a displaced suitor courts again, and when no
// one can court any more the suitor relation is symmetric and its pairs
// are the greedy matching — the heaviest free edge's ends court each
// other and keep each other, and the same holds for the rest. Each
// courtship strictly raises the edge its target is held by, so the loop
// ends; the result does not depend on the order of the courtships, only
// on (graph, partition, free set). The second pass is twoHop.
type matcher struct {
	mate     []graph.Vertex // v's suitor (−1: none); on return v's partner, or v
	bid      []float64      // weight of the edge mate[v] holds v by
	freeFlag []bool         // eligible; after the suitor pass, eligible and unmatched
	singles  []graph.Vertex
	end      []int32        // twoHop: per center, the end of its bucket in hops
	hops     []graph.Vertex // twoHop: the singletons, bucketed by center
	pend     []graph.Vertex
}

// run matches the vertices of free (ascending slot order) among
// themselves, restricted to same-partition pairs. On return mate[v] is
// v's partner (self = unmatched) for every v in free; other slots hold
// garbage from earlier runs. Scratch grows to fg.Order() and is reused.
func (m *matcher) run(fg *graph.Graph, part []int32, free []graph.Vertex) {
	m.suitor(fg, part, free)
	m.twoHop(fg, part, free)
	for _, v := range free {
		m.freeFlag[v] = false
	}
}

// suitor is the greedy pass: on return mate[v] is v's greedy partner,
// or v, for every v in free, and freeFlag marks the unmatched ones.
func (m *matcher) suitor(fg *graph.Graph, part []int32, free []graph.Vertex) {
	n := fg.Order()
	m.mate, m.bid, m.freeFlag = par.Sized(m.mate, n), par.Sized(m.bid, n), par.Sized(m.freeFlag, n)
	for _, v := range free {
		m.freeFlag[v] = true
		m.mate[v] = -1
	}
	for _, u := range free {
		for cur := u; cur >= 0; {
			v, w := m.court(fg, part, cur)
			if v < 0 {
				break
			}
			cur, m.mate[v], m.bid[v] = m.mate[v], cur, w
		}
	}
	for _, v := range free {
		if m.mate[v] < 0 {
			m.mate[v] = v
		} else {
			m.freeFlag[v] = false
		}
	}
}

// court returns u's best free same-partition neighbour, under the edge
// order, among those whose current suitor holds them by a worse edge
// than u's, with that edge's weight; −1 when there is none. u holds no
// one while it courts, so its edge never ties a suitor's.
func (m *matcher) court(fg *graph.Graph, part []int32, u graph.Vertex) (graph.Vertex, float64) {
	var best graph.Vertex = -1
	var bestW float64
	var bestH uint64
	pu := part[u]
	ws := fg.EdgeWeights(u)
	for i, v := range fg.Neighbors(u) {
		if v == u || !m.freeFlag[v] || part[v] != pu {
			continue
		}
		w := ws[i]
		if best >= 0 && w < bestW {
			continue
		}
		s := m.mate[v]
		if s >= 0 && w < m.bid[v] {
			continue
		}
		h := edgeHash(u, v)
		if best >= 0 && w == bestW && h > bestH {
			continue
		}
		if s >= 0 && w == m.bid[v] && h > edgeHash(s, v) {
			continue
		}
		best, bestW, bestH = v, w, h
	}
	return best, bestW
}

// twoHop pairs leftover singletons that share a common neighbor — the
// Metis two-hop device. A maximal matching strands every satellite of a
// star whose hub is matched (its only free edge leads to a non-free
// vertex), and those stars dominate deep coarse levels: without this
// pass the per-level reduction ratio decays toward 1 and the hierarchy
// both deepens and trips the stall guard. The (center, singleton) pairs
// are bucketed by center with a counting sort; the singletons are visited
// ascending, so each bucket lists its singletons ascending and the
// buckets, taken in center order, are the pairs in (center, singleton)
// order. Consecutive same-partition singletons within each bucket pair
// up in that order, so the result is a pure function of (graph,
// partition, free set).
func (m *matcher) twoHop(fg *graph.Graph, part []int32, free []graph.Vertex) {
	singles := m.singles[:0]
	for _, v := range free {
		if m.freeFlag[v] {
			singles = append(singles, v)
		}
	}
	m.singles = singles
	if len(singles) < 2 {
		return
	}
	// end[u] counts u's hops, then (summed) is where u's bucket starts,
	// then, once the bucket is filled, where it ends.
	end := par.Sized(m.end, fg.Order())
	clear(end)
	for _, s := range singles {
		for _, u := range fg.Neighbors(s) {
			end[u]++
		}
	}
	total := int32(0)
	for u, k := range end {
		end[u] = total
		total += k
	}
	hops := par.Sized(m.hops, int(total))
	for _, s := range singles {
		for _, u := range fg.Neighbors(s) {
			hops[end[u]] = s
			end[u]++
		}
	}
	pend := m.pend[:0]
	lo := int32(0)
	for _, hi := range end {
		pend = pend[:0]
		for _, s := range hops[lo:hi] {
			if !m.freeFlag[s] {
				continue
			}
			// At most one pending singleton per partition: the second
			// arrival pairs immediately.
			paired := false
			for k, t := range pend {
				if m.freeFlag[t] && part[t] == part[s] {
					m.freeFlag[s], m.freeFlag[t] = false, false
					m.mate[s], m.mate[t] = t, s
					pend[k] = pend[len(pend)-1]
					pend = pend[:len(pend)-1]
					paired = true
					break
				}
			}
			if !paired {
				pend = append(pend, s)
			}
		}
		lo = hi
	}
	m.end, m.hops, m.pend = end, hops[:0], pend[:0]
}
