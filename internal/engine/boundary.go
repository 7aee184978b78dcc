// The engine's boundary maintenance: the from-scratch rebuild and the
// incremental sync (journal pass + assignment-diff scan) that keep the
// boundary set, the per-partition size counters, the pending-unassigned
// set and the gains patch log exact. Both O(n) passes are split into
// arc-balanced contiguous vertex shards run on the engine's fork-join
// group — one shard, inline, at one worker or on a small graph. The
// rebuild writes each vertex's membership and size attribution from its
// owning shard and merges per-worker lists in shard order, which yields
// the ascending-id boundary. The incremental sync claims every
// re-examined vertex through an atomic compare-and-swap on the engine's
// recompute stamp, so each vertex's membership flip, size-attribution
// move and pending-collect is decided and applied by exactly one worker;
// membership and attribution (pure functions of graph + assignment) stay
// deterministic even though the claim winner — and hence the unordered
// boundary list's layout — is not. The boundary's documented contract is
// an unordered duplicate-free set, and every downstream consumer (seeded
// layering, seeded gains, the sorted cut report, the sorted phase-1
// seed list) is order-independent, which FuzzParallelEquivalence
// exercises. The per-partition size counters are summed from per-worker
// integer deltas at the join — integer addition is order-free, so they
// too are exact for every worker count.
package engine

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// parBoundaryMin is the snapshot order below which the boundary passes
// run as one shard instead of forking the worker group — the same
// small-input cutoff the layering and gains kernels apply. The
// threshold depends only on the graph order, and boundary membership
// is worker-count independent anyway, so determinism is unaffected.
// (FuzzBoundaryExact and FuzzParallelEquivalence generate graphs on
// both sides of this constant; keep that true if it changes.)
const parBoundaryMin = 256

// boundaryWorker is one worker's private arena for boundary passes.
type boundaryWorker struct {
	add   []graph.Vertex // vertices that entered the boundary
	seen  []graph.Vertex // boundary vertices re-examined (Gains' patch log)
	pend  []graph.Vertex // vertices newly collected for phase 1
	psize []int          // per-partition size deltas (rebuild: counts)
	dirty bool           // a vertex left the boundary (list needs compaction)
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
		ws.pend = ws.pend[:0]
		ws.seen = ws.seen[:0]
		if cap(ws.psize) < p {
			ws.psize = make([]int, p)
		}
		ws.psize = ws.psize[:p]
		for q := range ws.psize {
			ws.psize[q] = 0
		}
		ws.dirty = false
	}
}

// joinBoundaryWorkers merges the per-worker boundary additions, pending
// collections, patch-log entries and size deltas in shard order.
func (e *Engine) joinBoundaryWorkers() {
	for w := range e.shards {
		ws := &e.bws[w]
		e.boundary = append(e.boundary, ws.add...)
		e.pendingNew = append(e.pendingNew, ws.pend...)
		e.gainDirty = append(e.gainDirty, ws.seen...)
		for q, d := range ws.psize {
			e.partSizes[q] += d
		}
		if ws.dirty {
			e.listDirty = true
		}
	}
}

// rebuildBoundary recomputes the boundary set, the per-partition size
// counters and the pending-unassigned set from scratch over the current
// snapshot.
func (e *Engine) rebuildBoundary(a *partition.Assignment) {
	n := e.csr.Order()
	e.growTo(n)
	e.growSizes(a.P)
	e.trackedP = a.P
	for q := range e.partSizes {
		e.partSizes[q] = 0
	}
	e.boundary = e.boundary[:0]
	e.listDirty = false
	e.gainsValid = false // nothing was diffed: the pools need a full scan
	e.shardBoundaryPass(a.P)
	e.rb = rebuildTask{e: e, a: a}
	e.group.Run(len(e.shards), &e.rb)
	e.rb = rebuildTask{} // drop the assignment pointer after the region
	e.joinBoundaryWorkers()
	copy(e.prevPart[:n], a.Part[:n])
}

// rebuildTask scans one vertex-range shard for boundary membership,
// size attribution and pending collection. Shards are disjoint, so
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
		member := e.isBoundary(graph.Vertex(v), t.a)
		e.inBoundary[v] = member
		if member {
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
// last sync plus its neighbors, whose boundary status depends on it. The
// journal pass runs ahead of the diff region into worker 0's arena, so
// one join merges both; stamps it claimed are seen as current by the
// region's workers and skipped.
func (e *Engine) resync(a *partition.Assignment, touched []graph.Vertex) {
	e.growTo(e.csr.Order())
	e.stamps.Next()
	e.shardBoundaryPass(a.P)
	for _, v := range touched {
		e.recompute(&e.bws[0], v, a)
	}
	e.df = diffTask{e: e, a: a}
	e.group.Run(len(e.shards), &e.df)
	e.df = diffTask{} // drop the assignment pointer after the region
	e.joinBoundaryWorkers()
	e.finishSync(a)
}

// diffTask scans one vertex-range shard for assignment changes,
// re-examining changed vertices and their neighbors.
type diffTask struct {
	e *Engine
	a *partition.Assignment
}

func (t *diffTask) Do(w int) {
	e := t.e
	ws := &e.bws[w]
	sh := e.shards[w]
	for v := e.nextMoved(t.a, sh.Lo, sh.Hi); v < sh.Hi; v = e.nextMoved(t.a, v+1, sh.Hi) {
		e.recompute(ws, graph.Vertex(v), t.a)
		for _, u := range e.csr.Row(graph.Vertex(v)) {
			e.recompute(ws, u, t.a)
		}
	}
}

// recompute re-evaluates v's boundary membership, size attribution and
// pending status into ws, at most once per sync: the stamp CAS admits
// exactly one worker per vertex per sync, so the inBoundary, sizeAttr
// and inPending reads and writes below are race-free.
func (e *Engine) recompute(ws *boundaryWorker, v graph.Vertex, a *partition.Assignment) {
	if !e.stamps.Claim(v) {
		return
	}
	e.moveAttr(v, a, ws.psize)
	e.collectPending(v, a, &ws.pend)
	now := e.isBoundary(v, a)
	if e.gainsValid && (now || e.inBoundary[v]) {
		ws.seen = append(ws.seen, v)
	}
	if now == e.inBoundary[v] {
		return
	}
	e.inBoundary[v] = now
	if now {
		ws.add = append(ws.add, v)
	} else {
		ws.dirty = true
	}
}

// parCutSortMin is the boundary size below which the sorted cut report
// sorts as one shard: sorting a small boundary is cheaper than a fork.
const parCutSortMin = 1024

// cutSortTask sorts one contiguous shard of the engine's cut buffer.
type cutSortTask struct{ e *Engine }

func (t *cutSortTask) Do(w int) {
	sh := t.e.shards[w]
	slices.Sort(t.e.cutBuf[sh.Lo:sh.Hi])
}

// sortedBoundary copies the (unordered, duplicate-free) boundary set
// into the engine's cut scratch and sorts it ascending — the seed order
// partition.CutSeededInto expects. The buffer sorts per-shard on the
// worker group and, past one shard, k-way merges sequentially; sorted
// ascending order is a canonical property of the *set*, so the result is
// the same for every worker count. The returned slice is engine-owned
// scratch, valid until the next call.
func (e *Engine) sortedBoundary() []graph.Vertex {
	e.cutBuf = append(e.cutBuf[:0], e.boundary...)
	n := len(e.cutBuf)
	e.shards = par.Split(e.shards[:0], n, par.Workers(e.procs, n, parCutSortMin))
	e.cs = cutSortTask{e: e}
	e.group.Run(len(e.shards), &e.cs)
	e.cs = cutSortTask{}
	if len(e.shards) == 1 {
		return e.cutBuf
	}

	// Merge the sorted runs. The input is duplicate-free, so the minimum
	// head is unique at every step and the merge order is forced.
	if cap(e.cutBuf2) < n {
		e.cutBuf2 = make([]graph.Vertex, 0, n)
	}
	if cap(e.cutHeads) < len(e.shards) {
		e.cutHeads = make([]int, len(e.shards))
	}
	heads := e.cutHeads[:len(e.shards)]
	for i, sh := range e.shards {
		heads[i] = sh.Lo
	}
	out := e.cutBuf2[:0]
	for len(out) < n {
		best := -1
		var bv graph.Vertex
		for i, h := range heads {
			if h >= e.shards[i].Hi {
				continue
			}
			if v := e.cutBuf[h]; best < 0 || v < bv {
				best, bv = i, v
			}
		}
		out = append(out, bv)
		heads[best]++
	}
	// Swap the buffers so the next call reuses both backing arrays.
	e.cutBuf, e.cutBuf2 = out, e.cutBuf
	return out
}
