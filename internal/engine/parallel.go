// The sharded form of the engine's boundary maintenance. Both O(n)
// passes — the from-scratch rebuild and the assignment-diff scan — are
// split into arc-balanced contiguous vertex shards run on the engine's
// fork-join group. The rebuild writes each vertex's membership and size
// attribution from its owning shard and merges per-worker lists in
// shard order, reproducing the sequential ascending-id boundary
// exactly. The diff scan claims every re-examined vertex through an
// atomic compare-and-swap on the engine's recompute stamp, so each
// vertex's membership flip, size-attribution move and pending-collect
// is decided and applied by exactly one worker; membership and
// attribution (pure functions of graph + assignment) stay deterministic
// even though the claim winner — and hence the unordered boundary
// list's layout — is not. The boundary's documented contract is an
// unordered duplicate-free set, and every downstream consumer (seeded
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
// run inline instead of forking the worker group — the same
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

// growWorkers readies the per-worker arenas for P partitions.
func (e *Engine) growWorkers(p int) {
	for len(e.bws) < e.procs {
		e.bws = append(e.bws, boundaryWorker{})
	}
	for w := range e.bws[:e.procs] {
		ws := &e.bws[w]
		if cap(ws.psize) < p {
			ws.psize = make([]int, p)
		}
		ws.psize = ws.psize[:p]
	}
}

// joinBoundaryWorkers merges the per-worker boundary additions, pending
// collections and size deltas in shard order.
func (e *Engine) joinBoundaryWorkers(workers int) {
	for w := 0; w < workers; w++ {
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

// rebuildBoundaryPar is the sharded full rebuild; the caller has already
// truncated e.boundary, zeroed e.partSizes and grown the tracker arrays.
func (e *Engine) rebuildBoundaryPar(a *partition.Assignment) {
	e.growWorkers(a.P)
	e.shards = e.csr.Shards(e.shards[:0], e.procs)
	e.rb = rebuildTask{e: e, a: a}
	e.group.Run(len(e.shards), &e.rb)
	e.rb = rebuildTask{} // drop the assignment pointer after the region
	e.joinBoundaryWorkers(len(e.shards))
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
	ws.add = ws.add[:0]
	ws.pend = ws.pend[:0]
	ws.seen = ws.seen[:0]
	for q := range ws.psize {
		ws.psize[q] = 0
	}
	ws.dirty = false
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

// diffAssignmentPar is the sharded assignment-diff scan.
func (e *Engine) diffAssignmentPar(a *partition.Assignment) {
	e.growWorkers(a.P)
	e.shards = e.csr.Shards(e.shards[:0], e.procs)
	e.df = diffTask{e: e, a: a}
	e.group.Run(len(e.shards), &e.df)
	e.df = diffTask{} // drop the assignment pointer after the region
	e.joinBoundaryWorkers(len(e.shards))
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
	ws.add = ws.add[:0]
	ws.pend = ws.pend[:0]
	ws.seen = ws.seen[:0]
	for q := range ws.psize {
		ws.psize[q] = 0
	}
	ws.dirty = false
	sh := e.shards[w]
	for v := e.nextMoved(t.a, sh.Lo, sh.Hi); v < sh.Hi; v = e.nextMoved(t.a, v+1, sh.Hi) {
		e.recomputePar(ws, graph.Vertex(v), t.a)
		for _, u := range e.csr.Row(graph.Vertex(v)) {
			e.recomputePar(ws, u, t.a)
		}
	}
}

// parCutSortMin is the boundary size below which the sorted cut report
// sorts inline: sorting a small boundary is cheaper than a fork.
const parCutSortMin = 1024

// cutSortTask sorts one contiguous shard of the engine's cut buffer.
type cutSortTask struct{ e *Engine }

func (t *cutSortTask) Do(w int) {
	sh := t.e.shards[w]
	slices.Sort(t.e.cutBuf[sh.Lo:sh.Hi])
}

// sortedBoundary copies the (unordered, duplicate-free) boundary set
// into the engine's cut scratch and sorts it ascending — the seed order
// partition.CutSeededInto expects. Large boundaries sort
// per-shard on the worker group and k-way merge sequentially; sorted
// ascending order is a canonical property of the *set*, so the result is
// bit-identical to the sequential slices.Sort for every worker count.
// The returned slice is engine-owned scratch, valid until the next call.
func (e *Engine) sortedBoundary() []graph.Vertex {
	e.cutBuf = append(e.cutBuf[:0], e.boundary...)
	n := len(e.cutBuf)
	if e.procs <= 1 || n < parCutSortMin {
		slices.Sort(e.cutBuf)
		return e.cutBuf
	}
	e.shards = par.Split(e.shards[:0], n, e.procs)
	if len(e.shards) < 2 {
		slices.Sort(e.cutBuf)
		return e.cutBuf
	}
	e.cs = cutSortTask{e: e}
	e.group.Run(len(e.shards), &e.cs)
	e.cs = cutSortTask{}

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

// recomputePar is recompute with an atomic claim: the stamp CAS admits
// exactly one worker per vertex per sync, so the inBoundary, sizeAttr
// and inPending reads and writes below are race-free. Stamps already
// claimed by the sequential journal pass (which runs before the diff
// region starts) are seen as current and skipped, exactly like the
// sequential path.
func (e *Engine) recomputePar(ws *boundaryWorker, v graph.Vertex, a *partition.Assignment) {
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
