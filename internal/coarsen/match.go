package coarsen

// match.go holds the hierarchy's matcher: the deterministic
// mutual-proposal heavy-edge matching shared by build and rematch, with
// the two-hop pass for the singletons it strands.

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
)

// edgeHash is a fixed 64-bit mix of an undirected edge's endpoints —
// the matcher's tie-break among equal-weight candidate edges. A plain
// id tie-break serializes unit-weight meshes into a wavefront (one
// mutual pair per round creeping along each row); the hash makes ties
// locally random so a constant fraction of the remaining free edges is
// mutual each round, while staying a pure function of the graph and
// therefore identical on every run.
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
// build and rematch paths.
//
// It runs rounds of mutual proposals: every free vertex proposes its
// best incident free same-partition edge under a total edge order
// (weight descending, then edgeHash, then endpoint ids), and every
// mutually-proposing pair matches. The globally best free edge is always
// mutual, so each round makes progress and the loop terminates with a
// maximal matching; the hashed tie-break makes a constant fraction of the
// remaining free edges mutual per round in expectation (the classic
// local-max matching argument). Only vertices whose proposed target was
// matched away re-propose — as the free set only shrinks, everyone
// else's proposal stays optimal — so total work stays near-linear.
//
// The outcome is a pure function of (graph, partition, free set):
// proposals are per-vertex functions of the round's frozen state, and
// pair application runs over the sorted dirty list.
type matcher struct {
	prop     []graph.Vertex // current proposal target (per slot)
	mate     []graph.Vertex // result: partner, self until matched
	freeFlag []bool         // eligible and not yet matched
	dirtyA   []graph.Vertex
	dirtyB   []graph.Vertex
	matched  []graph.Vertex
	stamps   par.Stamps // the current dirty set
	hops     []hopPair
	pend     []graph.Vertex
}

// grow extends the per-slot arenas to n slots, one step each.
func (m *matcher) grow(n int) {
	old := len(m.prop)
	if n <= old {
		return
	}
	m.prop = slices.Grow(m.prop, n-old)[:n]
	m.mate = slices.Grow(m.mate, n-old)[:n]
	m.freeFlag = slices.Grow(m.freeFlag, n-old)[:n]
	for v := old; v < n; v++ {
		m.prop[v], m.mate[v], m.freeFlag[v] = -1, graph.Vertex(v), false
	}
}

// run matches the vertices of free (ascending slot order) among
// themselves, restricted to same-partition pairs. On return mate[v] is
// v's partner (self = unmatched) for every v in free; other slots hold
// garbage from earlier runs. Scratch grows to fg.Order() and is reused.
func (m *matcher) run(fg *graph.Graph, part []int32, free []graph.Vertex) {
	n := fg.Order()
	m.grow(n)
	for _, v := range free {
		m.freeFlag[v] = true
		m.mate[v] = v
	}
	dirty := append(m.dirtyA[:0], free...)
	next := m.dirtyB[:0]
	m.stamps.Grow(n)
	m.stamps.Next()
	for _, v := range dirty {
		m.stamps.TryMark(v)
	}
	for len(dirty) > 0 {
		// 1. Re-propose: every dirty vertex recomputes its best free
		// same-partition edge.
		for _, v := range dirty {
			m.propose(fg, part, v)
		}
		// 2. Match mutual pairs over the sorted dirty list. Proposals are
		// frozen here and prop is a function, so mutual pairs are
		// vertex-disjoint; a pair with both ends dirty is reported by its
		// smaller end, one with a non-dirty end (whose standing proposal
		// is still optimal) by the dirty end.
		matched := m.matched[:0]
		for _, v := range dirty {
			u := m.prop[v]
			if u < 0 || !m.freeFlag[v] || !m.freeFlag[u] {
				continue
			}
			if m.prop[u] == v && (v < u || !m.stamps.Marked(u)) {
				m.freeFlag[v], m.freeFlag[u] = false, false
				m.mate[v], m.mate[u] = u, v
				matched = append(matched, v, u)
			}
		}
		m.matched = matched
		if len(matched) == 0 {
			// No mutual pair anywhere implies no free same-partition
			// edge remains (the globally best one would be mutual, and
			// every new mutual pair involves a dirty vertex): maximal.
			break
		}
		// 3. Re-dirty: a free vertex re-proposes iff its target was just
		// matched away; the next round runs in ascending order.
		m.stamps.Next()
		next = next[:0]
		for _, x := range matched {
			for _, y := range fg.Neighbors(x) {
				if m.freeFlag[y] && m.prop[y] == x && m.stamps.TryMark(y) {
					next = append(next, y)
				}
			}
		}
		slices.Sort(next)
		dirty, next = next, dirty[:0]
	}
	m.twoHop(fg, part, free)
	for _, v := range free {
		m.freeFlag[v] = false
	}
	m.dirtyA, m.dirtyB = dirty[:0], next[:0]
}

// twoHop pairs leftover singletons that share a common neighbor — the
// Metis two-hop device. A maximal matching strands every satellite of a
// star whose hub is matched (its only free edge leads to a non-free
// vertex), and those stars dominate deep coarse levels: without this
// pass the per-level reduction ratio decays toward 1 and the hierarchy
// both deepens and trips the stall guard on warm repairs. The
// (center, singleton) pairs are sorted under their total order and
// consecutive same-partition singletons within each center run pair up
// in ascending order, so the result is a pure function of (graph,
// partition, free set).
func (m *matcher) twoHop(fg *graph.Graph, part []int32, free []graph.Vertex) {
	singles := m.matched[:0]
	for _, v := range free {
		if m.freeFlag[v] {
			singles = append(singles, v)
		}
	}
	m.matched = singles
	if len(singles) < 2 {
		return
	}
	hops := m.hops[:0]
	for _, s := range singles {
		for _, u := range fg.Neighbors(s) {
			hops = append(hops, hopPair{u, s})
		}
	}
	slices.SortFunc(hops, hopPairCmp)
	pend := m.pend[:0]
	for i := 0; i < len(hops); {
		j := i
		pend = pend[:0]
		for ; j < len(hops) && hops[j].u == hops[i].u; j++ {
			s := hops[j].s
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
		i = j
	}
	m.hops, m.pend = hops[:0], pend[:0]
}

// hopPair links a leftover singleton s to one of its neighbors u (the
// candidate meeting point of the two-hop pass).
type hopPair struct{ u, s graph.Vertex }

// hopPairCmp is the total order on hop pairs: center, then singleton.
func hopPairCmp(a, b hopPair) int {
	if a.u != b.u {
		return int(a.u) - int(b.u)
	}
	return int(a.s) - int(b.s)
}

// propose recomputes v's best incident free same-partition edge under
// the total edge order (weight desc, edgeHash asc, partner id asc).
func (m *matcher) propose(fg *graph.Graph, part []int32, v graph.Vertex) {
	var best graph.Vertex = -1
	var bestW float64
	var bestH uint64
	pv := part[v]
	ws := fg.EdgeWeights(v)
	for i, u := range fg.Neighbors(v) {
		if u == v || !m.freeFlag[u] || part[u] != pv {
			continue
		}
		w := ws[i]
		if best >= 0 && w < bestW {
			continue
		}
		h := edgeHash(v, u)
		if best < 0 || w > bestW || h < bestH || (h == bestH && u < best) {
			best, bestW, bestH = u, w, h
		}
	}
	m.prop[v] = best
}
