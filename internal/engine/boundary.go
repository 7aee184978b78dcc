// The engine's boundary maintenance: the from-scratch rebuild and the
// incremental sync (journal pass + assignment diff or write-log pass) that
// keep the boundary set, the per-vertex cut terms, the per-partition size
// counters, the pending-unassigned set and — while Gains keeps pools — the
// refinement classes and their change log exact. Both passes are plain
// loops over the snapshot; the incremental one marks every re-examined
// vertex in the engine's recompute stamps, so each vertex's verdicts are
// decided once per sync.
//
// The boundary and the pending set are id-ordered sets (idSet): a
// membership bitset written as verdicts are reached, and a member list
// regenerated ascending by a word walk at the end of a sync that changed
// membership. Membership is a pure function of graph + assignment and
// ascending order a property of the set; nothing sorts.
package engine

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/partition"
)

// idSet is a vertex set kept in id order: one membership bit per vertex
// and the members listed ascending.
type idSet struct {
	bits  []uint64
	list  []graph.Vertex
	stale bool // membership changed since list was made
}

// grow readies the bitset for an order-n graph.
func (s *idSet) grow(n int) {
	for len(s.bits) < (n+63)/64 {
		s.bits = append(s.bits, 0)
	}
}

func (s *idSet) has(v graph.Vertex) bool { return s.bits[v>>6]>>(uint(v)&63)&1 != 0 }

// add enters v, a non-member.
func (s *idSet) add(v graph.Vertex) {
	s.bits[v>>6] |= 1 << (uint(v) & 63)
	s.stale = true
}

// remove drops v, a member.
func (s *idSet) remove(v graph.Vertex) {
	s.bits[v>>6] &^= 1 << (uint(v) & 63)
	s.stale = true
}

// reset empties a set whose list is current.
func (s *idSet) reset() {
	for _, v := range s.list {
		s.bits[v>>6] &^= 1 << (uint(v) & 63)
	}
	s.list = s.list[:0]
}

// relist regenerates the member list from the bitset when membership
// changed since it was made: O(n/64 + members).
func (s *idSet) relist() {
	if !s.stale {
		return
	}
	list := s.list[:0]
	for i, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			list = append(list, graph.Vertex(i<<6+bits.TrailingZeros64(w)))
		}
	}
	s.list, s.stale = list, false
}

// rebuildBoundary recomputes the boundary set, the per-vertex cut terms,
// the per-partition size counters and the pending-unassigned set from
// scratch over the current snapshot.
func (e *Engine) rebuildBoundary(a *partition.Assignment) {
	n := e.csr.Order()
	e.growTo(n)
	e.trackedP = a.P
	if cap(e.partSizes) < a.P {
		e.partSizes = make([]int, a.P)
	}
	e.partSizes = e.partSizes[:a.P]
	clear(e.partSizes)
	clear(e.bnd.bits)
	e.bnd.list = e.bnd.list[:0]
	e.gainsValid = false // nothing was diffed: the pools need a full scan
	e.cutValid = false
	for v := graph.Vertex(0); int(v) < n; v++ {
		now, ext, k := e.rowTerm(v, a)
		e.ext[v], e.extN[v] = ext, k
		if now {
			e.bnd.add(v)
		}
		want := e.attrOf(v, a)
		e.sizeAttr[v] = want
		if want >= 0 {
			e.partSizes[want]++
		}
		e.collectPending(v, a)
	}
	e.bnd.relist()
	e.pending.relist()
	copy(e.prevPart[:n], a.Part[:n])
}

// resync is the incremental sync: it re-examines the structurally
// touched vertices (an edge flip cannot change a non-endpoint's
// membership; size attribution and pending collection ride the same
// re-examination), then every vertex whose partition changed since the
// last sync — found by the diff or in the engine's write log — plus its
// neighbors.
func (e *Engine) resync(a *partition.Assignment, touched []graph.Vertex, diff bool) {
	n := e.csr.Order()
	e.growTo(n)
	if e.gainsValid {
		e.gain.Reserve(n)
	}
	e.stamps.Next()
	for _, v := range touched {
		e.recompute(v, a)
	}
	if diff {
		for v := e.nextMoved(a, 0, n); v < n; v = e.nextMoved(a, v+1, n) {
			e.reexamine(graph.Vertex(v), a)
		}
	} else {
		for _, v := range e.written {
			if a.Part[v] != e.prevPart[v] { // false for a repeat
				e.reexamine(v, a)
			}
		}
	}
	e.bnd.relist()
	e.pending.relist()
	if len(e.gainDirty) > len(e.bnd.list) {
		// Patching would take more records than the boundary-seeded scan
		// visits vertices: let the next Gains rescan, and stop classifying
		// until it has.
		e.gainsValid = false
		e.gainDirty = e.gainDirty[:0]
	}
}

// reexamine records the new partition of v, which changed since the last
// sync (the only prevPart slots a resync writes), and re-examines v and its
// neighbors: the one path of the diff and the log pass.
func (e *Engine) reexamine(v graph.Vertex, a *partition.Assignment) {
	e.prevPart[v] = a.Part[v]
	e.recompute(v, a)
	for _, u := range e.csr.Row(v) {
		e.recompute(u, a)
	}
}

// recompute re-evaluates v's boundary membership, cut term, size
// attribution, pending status and — while pools are kept — refinement
// class, at most once per sync (the stamp). Any re-examination drops the
// kept cut report.
func (e *Engine) recompute(v graph.Vertex, a *partition.Assignment) {
	if !e.stamps.TryMark(v) {
		return
	}
	e.cutValid = false
	e.moveAttr(v, a)
	e.collectPending(v, a)
	was := e.bnd.has(v)
	var now bool
	if e.gainsValid {
		e.gainDirty = e.gain.Reclassify(&e.row, e.csr, a, v, e.gainDirty)
		now, e.ext[v], e.extN[v] = e.row.Foreign, e.row.Ext, e.row.ExtN
	} else {
		now, e.ext[v], e.extN[v] = e.rowTerm(v, a)
	}
	switch {
	case now && !was:
		e.bnd.add(v)
	case was && !now:
		e.bnd.remove(v)
	}
}
