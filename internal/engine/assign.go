// The engine's delta-aware phase 1: nearest-partition assignment of new
// vertices, seeded from the pending-unassigned set the sync machinery
// collects from the edit journal and the assignment diff — so a warm
// engine whose graph gained a handful of vertices never traverses the
// unchanged region at all, where the one-shot oracle (Assign) floods the
// whole graph from every labeled vertex.
//
// The kernel is graph.NearestLabeled's FIFO queue with the silent labeled
// vertices left out: it starts from the labeled rim of the new region
// instead of every labeled vertex, and the rest never discover anything.
package engine

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
)

// assignScratch holds the reusable state of the delta-aware phase 1.
// All buffers grow to the largest call seen and are then reused; a call
// with an empty pending set touches none of them.
type assignScratch struct {
	seeds []graph.Vertex
	queue []graph.Vertex
	sizes []int
}

// assign is the engine's phase 1: it syncs (collecting the pending set
// from the journal and the assignment diff), normalizes stale dead
// assignments, maps every pending live vertex to the partition of the
// nearest assigned vertex, and places unreachable clusters on the
// least-loaded partitions — bit-identical to the one-shot Assign oracle,
// at cost proportional to the new region plus its labeled rim.
func (e *Engine) assign(a *partition.Assignment) (assigned, clusterFallbacks int, err error) {
	e.sync(a)
	if e.badID >= 0 {
		return 0, 0, CheckID(a, e.badID)
	}
	s := &e.asg

	// Resolve the pending set: normalize dead vertices that still carry
	// an assignment, drop entries the caller assigned meanwhile, keep
	// the genuinely new (ascending, as the set lists them). Entries are only
	// cleared on success, so an errored call retries with nothing lost.
	// Phase 1 writes only pending vertices (an orphan cluster's unassigned
	// region is all pending too), so the list is its write log.
	e.written = append(e.written, e.pending.members()...)
	seeds := s.seeds[:0]
	for _, v := range e.pending.members() {
		if !e.csr.Live[v] {
			a.Part[v] = partition.Unassigned
			continue
		}
		if a.Part[v] < 0 {
			seeds = append(seeds, v)
		}
	}
	s.seeds = seeds
	hasOld := false
	for _, c := range e.partSizes {
		if c > 0 {
			hasOld = true
			break
		}
	}
	if !hasOld {
		return 0, 0, ErrNeedRepartition
	}
	if len(seeds) == 0 {
		e.pending.reset()
		return 0, 0, nil
	}

	// The queue starts from the labeled rim of the unassigned region —
	// every labeled neighbor of a seed, ascending and deduplicated: the
	// relative order the oracle's all-labeled initial queue gives them.
	queue := s.queue[:0]
	for _, v := range seeds {
		for _, u := range e.csr.Row(v) {
			if a.Part[u] >= 0 {
				queue = append(queue, u)
			}
		}
	}
	slices.Sort(queue)
	queue = slices.Compact(queue)
	rim := len(queue)
	queue = e.flood(a, queue)
	sizes := append(s.sizes[:0], e.partSizes...)
	for _, v := range queue[rim:] {
		sizes[a.Part[v]]++
	}
	assigned = len(queue) - rim

	// Disconnected new clusters: each still-unassigned seed, in ascending
	// order (the oracle's component order), floods its component within
	// the unassigned region with the partition that is least loaded
	// before it — the choice sees only earlier components' sizes.
	for _, seed := range seeds {
		if a.Part[seed] >= 0 {
			continue // reached from the rim, or swept into an earlier cluster
		}
		best := 0
		for q := 1; q < a.P; q++ {
			if sizes[q] < sizes[best] {
				best = q
			}
		}
		a.Part[seed] = int32(best)
		queue = e.flood(a, append(queue[:0], seed))
		sizes[best] += len(queue)
		assigned += len(queue)
		clusterFallbacks++
	}
	s.queue, s.sizes = queue[:0], sizes

	e.pending.reset()
	return assigned, clusterFallbacks, nil
}

// flood runs the FIFO BFS from queue's labeled vertices into the
// unassigned region: each vertex it discovers takes its discoverer's
// partition straight into a.Part, so the unassigned test is also the
// visited mark. It returns queue with the discovered vertices appended in
// discovery order.
func (e *Engine) flood(a *partition.Assignment, queue []graph.Vertex) []graph.Vertex {
	for head := 0; head < len(queue); head++ {
		p := a.Part[queue[head]]
		for _, u := range e.csr.Row(queue[head]) {
			if a.Part[u] < 0 {
				a.Part[u] = p
				queue = append(queue, u)
			}
		}
	}
	return queue
}
