// The engine's boundary maintenance: the from-scratch rebuild and the
// incremental sync (journal pass + assignment diff or write-log pass) that
// keep the boundary set, the per-vertex cut terms, the per-partition size
// counters, the pending-unassigned set and — while Gains keeps pools — the
// refinement classes and their change log exact. Both O(n) passes are
// split into arc-balanced contiguous vertex shards run on the engine's
// fork-join group — one shard, inline, at one worker or on a small graph.
// The incremental sync claims every re-examined vertex through an atomic
// compare-and-swap on the engine's recompute stamp, so each vertex's
// verdicts are decided by exactly one worker, into its private lists.
//
// The boundary and the pending set are id-ordered sets (idSet): a
// membership bitset that workers only read and the sequential join alone
// writes, and a member list regenerated ascending by a word walk whenever
// a sync changed membership. Membership is a pure function of graph +
// assignment and ascending order a property of the set, so both are the
// same at every worker count though the claim winners are not; nothing
// sorts. The size counters are summed from per-worker integer deltas at
// the join — order-free, so exact for every worker count too.
package engine

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/refine"
)

// parBoundaryMin is the snapshot order below which the boundary passes
// run as one shard instead of forking the worker group — the same
// small-input cutoff the layering kernel applies. The
// threshold depends only on the graph order, and boundary membership
// is worker-count independent anyway, so determinism is unaffected.
// (FuzzBoundaryExact and FuzzParallelEquivalence generate graphs on
// both sides of this constant; keep that true if it changes.)
const parBoundaryMin = 256

// idSet is a vertex set kept in id order: one membership bit per vertex
// and the members listed ascending.
type idSet struct {
	bits []uint64
	list []graph.Vertex
}

// grow readies the bitset for an order-n graph.
func (s *idSet) grow(n int) {
	for len(s.bits) < (n+63)/64 {
		s.bits = append(s.bits, 0)
	}
}

func (s *idSet) has(v graph.Vertex) bool { return s.bits[v>>6]>>(uint(v)&63)&1 != 0 }

// apply enters in and removes out — non-members and members respectively
// — and reports whether that left the list stale (see relist).
func (s *idSet) apply(in, out []graph.Vertex) bool {
	for _, v := range in {
		s.bits[v>>6] |= 1 << (uint(v) & 63)
	}
	for _, v := range out {
		s.bits[v>>6] &^= 1 << (uint(v) & 63)
	}
	return len(in)+len(out) > 0
}

// relist regenerates the member list from the bitset: O(n/64 + members).
func (s *idSet) relist() {
	list := s.list[:0]
	for i, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			list = append(list, graph.Vertex(i<<6+bits.TrailingZeros64(w)))
		}
	}
	s.list = list
}

// boundaryWorker is one worker's private arena for boundary passes.
type boundaryWorker struct {
	add      []graph.Vertex   // vertices that entered the boundary
	left     []graph.Vertex   // vertices that left it
	recs     []refine.Reclass // class changes (Gains' patch log)
	pend     []graph.Vertex   // vertices newly collected for phase 1
	psize    []int            // per-partition size deltas (rebuild: counts)
	row      refine.RowScan   // the row kernel's arena
	examined bool             // re-examined a vertex: the kept cut report is stale
}

// shardBoundaryPass shards the snapshot's vertex range by arc count for
// one boundary pass and readies an empty private arena per shard.
func (e *Engine) shardBoundaryPass(p int) {
	n := e.csr.Order()
	e.shards = e.csr.Shards(e.shards[:0], par.Workers(e.procs, n, parBoundaryMin))
	for len(e.bws) < len(e.shards) {
		e.bws = append(e.bws, boundaryWorker{})
	}
	for w := range e.bws[:len(e.shards)] {
		ws := &e.bws[w]
		ws.add = ws.add[:0]
		ws.left = ws.left[:0]
		ws.pend = ws.pend[:0]
		ws.recs = ws.recs[:0]
		if cap(ws.psize) < p {
			ws.psize = make([]int, p)
		}
		ws.psize = ws.psize[:p]
		clear(ws.psize)
		ws.examined = false
	}
}

// joinBoundaryWorkers applies the per-worker verdicts in shard order: it
// alone writes the two bitsets, relists a set whose membership moved, and
// drops the kept cut report if any vertex was re-examined.
func (e *Engine) joinBoundaryWorkers() {
	moved, collected := false, false
	for w := range e.shards {
		ws := &e.bws[w]
		moved = e.bnd.apply(ws.add, ws.left) || moved
		collected = e.pending.apply(ws.pend, nil) || collected
		e.gainDirty = append(e.gainDirty, ws.recs...)
		for q, d := range ws.psize {
			e.partSizes[q] += d
		}
		if ws.examined {
			e.cutValid = false
		}
	}
	if moved {
		e.bnd.relist()
	}
	if collected {
		e.pending.relist()
	}
}

// rebuildBoundary recomputes the boundary set, the per-partition size
// counters and the pending-unassigned set from scratch over the current
// snapshot.
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
	e.shardBoundaryPass(a.P)
	e.rb = rebuildTask{e: e, a: a}
	e.group.Run(len(e.shards), &e.rb)
	e.rb = rebuildTask{} // drop the assignment pointer after the region
	e.joinBoundaryWorkers()
	copy(e.prevPart[:n], a.Part[:n])
}

// rebuildTask scans one vertex-range shard for boundary membership, cut
// terms, size attribution and pending collection. Shards are disjoint, so
// every per-vertex write is owned by exactly one worker.
type rebuildTask struct {
	e *Engine
	a *partition.Assignment
}

func (t *rebuildTask) Do(w int) {
	e := t.e
	ws := &e.bws[w]
	sh := e.shards[w]
	for v := sh.Lo; v < sh.Hi; v++ {
		now, ext, n := e.rowTerm(graph.Vertex(v), t.a)
		e.ext[v], e.extN[v] = ext, n
		if now {
			ws.add = append(ws.add, graph.Vertex(v))
		}
		want := e.attrOf(graph.Vertex(v), t.a)
		e.sizeAttr[v] = want
		if want >= 0 {
			ws.psize[want]++
		}
		e.collectPending(graph.Vertex(v), t.a, &ws.pend)
	}
}

// resync is the incremental sync: it re-examines the structurally
// touched vertices (an edge flip cannot change a non-endpoint's
// membership; size attribution and pending collection ride the same
// re-examination), then every vertex whose partition changed since the
// last sync — found by the diff region or in the engine's write log — plus
// its neighbors. The journal and log passes run inline into worker 0's
// arena, so one join merges all; stamps they claimed are seen as current
// by the region's workers and skipped.
func (e *Engine) resync(a *partition.Assignment, touched []graph.Vertex, diff bool) {
	e.growTo(e.csr.Order())
	if e.gainsValid {
		e.gain.Reserve(e.csr.Order())
	}
	e.stamps.Next()
	e.shardBoundaryPass(a.P)
	for _, v := range touched {
		e.recompute(&e.bws[0], v, a)
	}
	if diff {
		e.df = diffTask{e: e, a: a}
		e.group.Run(len(e.shards), &e.df)
		e.df = diffTask{} // drop the assignment pointer after the region
	} else {
		for _, v := range e.written {
			if a.Part[v] != e.prevPart[v] { // false for a repeat
				e.reexamine(&e.bws[0], v, a)
			}
		}
	}
	e.joinBoundaryWorkers()
	if len(e.gainDirty) > len(e.bnd.list) {
		// Patching would take more records than the boundary-seeded scan
		// visits vertices: let the next Gains rescan, and stop classifying
		// until it has.
		e.gainsValid = false
		e.gainDirty = e.gainDirty[:0]
	}
}

// diffTask scans one vertex-range shard for assignment changes and
// re-examines each changed vertex.
type diffTask struct {
	e *Engine
	a *partition.Assignment
}

func (t *diffTask) Do(w int) {
	e := t.e
	ws := &e.bws[w]
	sh := e.shards[w]
	for v := e.nextMoved(t.a, sh.Lo, sh.Hi); v < sh.Hi; v = e.nextMoved(t.a, v+1, sh.Hi) {
		e.reexamine(ws, graph.Vertex(v), t.a)
	}
}

// reexamine records the new partition of v, which changed since the last
// sync (the only prevPart slots a resync writes), and re-examines v and its
// neighbors: the one path of the diff and the log pass.
func (e *Engine) reexamine(ws *boundaryWorker, v graph.Vertex, a *partition.Assignment) {
	e.prevPart[v] = a.Part[v]
	e.recompute(ws, v, a)
	for _, u := range e.csr.Row(v) {
		e.recompute(ws, u, a)
	}
}

// recompute re-evaluates v's boundary membership, cut term, size
// attribution, pending status and — while pools are kept — refinement
// class into ws, at most once per sync: the stamp CAS admits exactly one
// worker per vertex per sync, so the sizeAttr, term and class writes are
// race-free (nobody reads them before the join); the membership bits are
// only read (they hold the last sync's).
func (e *Engine) recompute(ws *boundaryWorker, v graph.Vertex, a *partition.Assignment) {
	if !e.stamps.Claim(v) {
		return
	}
	ws.examined = true
	e.moveAttr(v, a, ws.psize)
	e.collectPending(v, a, &ws.pend)
	was := e.bnd.has(v)
	var now bool
	if e.gainsValid {
		ws.recs = e.gain.Reclassify(&ws.row, e.csr, a, v, ws.recs)
		now, e.ext[v], e.extN[v] = ws.row.Foreign, ws.row.Ext, ws.row.ExtN
	} else {
		now, e.ext[v], e.extN[v] = e.rowTerm(v, a)
	}
	switch {
	case now && !was:
		ws.add = append(ws.add, v)
	case was && !now:
		ws.left = append(ws.left, v)
	}
}
