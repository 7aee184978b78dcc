// The engine's boundary maintenance: the from-scratch rebuild and the
// incremental sync (journal pass + assignment diff or write-log pass) that
// keep the boundary set, the per-vertex cut terms, the per-partition size
// counters, the pending-unassigned set and — while Gains keeps pools — the
// refinement classes and their change log exact. The rebuild refills the
// connectivity cache (refine.Conn) from every row; the incremental sync patches it from
// the rows of the vertices that moved and refills the structurally edited
// ones, queueing every vertex whose entries or partition changed (once:
// a bit marks it queued), and then decides each queued vertex's verdicts
// once, from its entries.
//
// The boundary and the pending set are id-ordered sets (idSet): a
// membership bitset written as verdicts are reached, a member count, and
// a member list regenerated ascending by a word walk, when a sync has
// changed membership, by its first reader. Membership is a pure function of graph + assignment and
// ascending order a property of the set; nothing sorts.
package engine

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/refine"
)

// idSet is a vertex set kept in id order: one membership bit per vertex,
// the member count, and the members listed ascending — the list made
// again, when membership changed, by the first reader (members).
type idSet struct {
	bits  []uint64
	list  []graph.Vertex
	size  int  // members
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
	s.size++
	s.stale = true
}

// remove drops v, a member.
func (s *idSet) remove(v graph.Vertex) {
	s.bits[v>>6] &^= 1 << (uint(v) & 63)
	s.size--
	s.stale = true
}

// reset empties the set.
func (s *idSet) reset() {
	s.relist()
	for _, v := range s.list {
		s.bits[v>>6] &^= 1 << (uint(v) & 63)
	}
	s.list, s.size = s.list[:0], 0
}

// members returns the member list, ascending, making it again first if
// membership changed since.
func (s *idSet) members() []graph.Vertex {
	s.relist()
	return s.list
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

// rebuildBoundary recomputes the boundary set, the connectivity cache,
// the per-vertex cut terms, the per-partition size counters and the
// pending-unassigned set from scratch over the current snapshot: the one
// sync path that reads every row.
func (e *Engine) rebuildBoundary(a *partition.Assignment) {
	n := e.csr.Order()
	e.trackedP = a.P
	e.growTo(n)
	if cap(e.partSizes) < a.P {
		e.partSizes = make([]int, a.P)
	}
	e.partSizes = e.partSizes[:a.P]
	clear(e.partSizes)
	e.cutPart = par.Sized(e.cutPart, a.P)
	clear(e.cutPart)
	e.cutWeight, e.cutArcs = 0, 0
	clear(e.bnd.bits)
	e.bnd.list, e.bnd.size, e.bnd.stale = e.bnd.list[:0], 0, false
	e.gainsValid = false // nothing was diffed: the pools need a full scan
	e.cutValid = false
	copy(e.prevPart[:n], a.Part[:n])
	e.arcsRead += e.conn.Refill(e.csr, e.prevPart)
	for v := graph.Vertex(0); int(v) < n; v++ {
		if e.term(v, a) {
			e.bnd.add(v)
		}
		want := e.attrOf(v, a)
		e.sizeAttr[v] = want
		if want >= 0 {
			e.partSizes[want]++
		}
		e.countCut(want, int64(e.ext[v]), int(e.extN[v]))
		e.collectPending(v, a)
	}
}

// resync is the incremental sync. It brings the connectivity cache up to
// date — first the structurally touched vertices, refilled from their own
// rows, then every vertex whose partition changed since the last sync,
// found by the diff or in the engine's write log, whose one row read both
// updates its own entries and patches its neighbours' — and then settles
// every vertex whose entries or partition changed: boundary membership,
// cut term, size attribution, pending status and (while pools are kept)
// refinement class, each from the vertex's own entries. A diff whose
// moved vertices pass a quarter of the snapshot's arcs gives up and
// reports false: patching their neighbours would cost more than the
// rebuild's one read of every row (a cold start, a V-cycle's projection,
// a caller's new assignment), which the caller then runs.
func (e *Engine) resync(a *partition.Assignment, touched []graph.Vertex, diff bool) bool {
	n := e.csr.Order()
	e.growTo(n)
	if e.gainsValid {
		e.gain.Reserve(n)
	}
	for _, v := range touched {
		if !e.examine(v) {
			continue
		}
		if a.Part[v] == e.prevPart[v] {
			e.arcsRead += e.conn.Fill(e.csr, e.prevPart, v, false, 0)
		} else {
			// It also moved: the diff below refills it, reading its row once
			// for both (touched is empty unless the graph changed, and then
			// this sync diffs).
			e.conn.Invalidate(v)
		}
	}
	if diff {
		budget := e.csr.NumE / 2 // a quarter of the arcs
		for v := e.nextMoved(a, 0, n); v < n; v = e.nextMoved(a, v+1, n) {
			if budget -= e.csr.Degree(graph.Vertex(v)); budget < 0 {
				e.dequeue()
				return false
			}
			e.reexamine(graph.Vertex(v), a)
		}
	} else {
		for _, v := range e.written {
			if a.Part[v] != e.prevPart[v] { // false for a repeat
				e.reexamine(v, a)
			}
		}
	}
	for _, v := range e.queue {
		e.settle(v, a)
	}
	e.dequeue()
	if len(e.gainDirty) > e.bnd.size {
		// Patching would take more records than the boundary-seeded scan
		// visits vertices: let the next Gains rescan, and stop classifying
		// until it has.
		e.gainsValid = false
		e.gainDirty = e.gainDirty[:0]
	}
	return true
}

// examine queues v for this sync's settle pass, reporting whether it was
// not queued yet.
func (e *Engine) examine(v graph.Vertex) bool {
	if e.queued[v>>6]>>(uint(v)&63)&1 != 0 {
		return false
	}
	e.queued[v>>6] |= 1 << (uint(v) & 63)
	e.queue = append(e.queue, v)
	return true
}

// dequeue empties the settle queue.
func (e *Engine) dequeue() {
	for _, v := range e.queue {
		e.queued[v>>6] &^= 1 << (uint(v) & 63)
	}
	e.queue = e.queue[:0]
}

// reexamine applies v's partition change since the last sync (the only
// prevPart slots a resync writes) to the cache with one read of v's row —
// patching each neighbour, then v's own entries (or, for a stale v, a
// fill that does both) — and queues v and its neighbours to be settled:
// the one path of the diff and the log pass.
func (e *Engine) reexamine(v graph.Vertex, a *partition.Assignment) {
	from, to := e.prevPart[v], a.Part[v]
	e.prevPart[v] = to
	e.examine(v)
	row := e.csr.Row(v)
	if e.conn.Stale(v) {
		for _, u := range row {
			e.examine(u)
		}
		e.conn.Fill(e.csr, e.prevPart, v, true, from)
	} else {
		ws := e.csr.RowWeights(v)
		for i, u := range row {
			e.examine(u)
			e.conn.Moved(u, e.prevPart[u], from, to, ws[i])
		}
		e.conn.Shift(v, from, to, int32(len(row)))
	}
	e.arcsRead += len(row)
	e.movedArcs += len(row)
}

// settle re-derives v's boundary membership, cut term (moving it in the
// cut sums), size attribution, pending status and — while pools are kept —
// refinement class from its cache entries, once per sync. Any settled
// vertex drops the kept cut report.
func (e *Engine) settle(v graph.Vertex, a *partition.Assignment) {
	e.cutValid = false
	q, w, n := e.sizeAttr[v], e.ext[v], e.extN[v]
	e.moveAttr(v, a)
	e.collectPending(v, a)
	was, now := e.bnd.has(v), e.term(v, a)
	if e.sizeAttr[v] != q || e.ext[v] != w || e.extN[v] != n {
		e.countCut(q, -int64(w), -int(n))
		e.countCut(e.sizeAttr[v], int64(e.ext[v]), int(e.extN[v]))
	}
	switch {
	case now && !was:
		e.bnd.add(v)
	case was && !now:
		e.bnd.remove(v)
	}
}

// term stores v's cut term — the weight of its arcs to assigned vertices
// of another partition and their count, zero for a dead or unassigned v —
// and, while pools are kept, its refinement class (the best partition by
// refine.Prefer, as refine.RowScan.Scan would find it), all read from v's
// cache entries. It reports whether v is a boundary vertex: live, with an
// arc to another partition or to an unassigned vertex.
func (e *Engine) term(v graph.Vertex, a *partition.Assignment) bool {
	entries := e.conn.Entries(v)
	pv := a.Part[v]
	var ext, extN int32
	best, bestG, in := int32(-1), int64(0), int64(e.conn.In(v))
	if pv >= 0 {
		for _, x := range entries {
			if x.Part < 0 {
				continue
			}
			ext += x.Wt
			extN += x.Arcs
			if g := int64(x.Wt) - in; int(x.Part) < a.P && refine.Prefer(g, x.Part, bestG, best) {
				best, bestG = x.Part, g
			}
		}
	}
	e.ext[v], e.extN[v] = ext, extN
	if e.gainsValid {
		k, g := int32(-1), int32(0)
		if best >= 0 && int(pv) < a.P {
			k, g = pv*int32(a.P)+best, int32(bestG)
		}
		e.gainDirty = e.gain.Store(v, k, g, e.gainDirty)
	}
	return len(entries) > 0
}
