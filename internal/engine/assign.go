// The engine's delta-aware phase 1: nearest-partition assignment of new
// vertices, seeded from the pending-unassigned set the sync machinery
// collects from the edit journal and the assignment diff — so a warm
// engine whose graph gained a handful of vertices never traverses the
// unchanged region at all, where the one-shot oracle (Assign) floods the
// whole graph from every labeled vertex.
//
// The kernel is a level-synchronous multi-source BFS out of the labeled
// region into the unassigned region, sharded over the engine's worker
// group with the same claim-stamp + shard-order-merge discipline as the
// layering kernel. Determinism needs one extra ingredient here because
// the oracle's tie-break is discovery-order ("the label that reaches the
// vertex first in BFS order"): an atomic claim decides only membership,
// so each claimed vertex recomputes its canonical discoverer — the
// frontier neighbor with the smallest frontier position — and the next
// frontier is sorted by (discoverer position, row index), which is
// exactly the order the sequential queue would have produced. By
// induction the frontier sequence, every winner, and therefore the whole
// phase-1 result are bit-identical to graph.NearestLabeled's restricted
// to the unassigned region, for every worker count.
package engine

import (
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// parAsgMin is the seed/frontier size below which phase-1 work runs as
// one shard instead of forking the worker group (the layering kernel's
// parLevelMin rule; the threshold depends only on input size).
const parAsgMin = 48

// asgCand is one claimed BFS candidate and its canonical discovery key:
// (frontier position of the discoverer) << 32 | (row index of the
// candidate within the discoverer's row). Keys are unique — one row slot
// names one vertex — so sorting by key is a total order reproducing the
// sequential discovery sequence.
type asgCand struct {
	key uint64
	v   graph.Vertex
}

// candSorter is a reused sort.Interface over the candidate buffer.
type candSorter struct{ cs []asgCand }

func (s *candSorter) Len() int           { return len(s.cs) }
func (s *candSorter) Less(i, j int) bool { return s.cs[i].key < s.cs[j].key }
func (s *candSorter) Swap(i, j int)      { s.cs[i], s.cs[j] = s.cs[j], s.cs[i] }

// asgWorker is one worker's private arena for phase-1 regions.
type asgWorker struct {
	srcs  []graph.Vertex
	cands []asgCand
}

// assignScratch holds the reusable state of the delta-aware phase 1.
// All buffers grow to the largest call seen and are then reused; a call
// with an empty pending set touches none of them.
type assignScratch struct {
	stamps    par.Stamps // discovered (sources, labeled vertices, clustered orphans)
	posStamps par.Stamps // current-frontier membership, advanced per level
	winner    []int32
	posOf     []int32
	seeds     []graph.Vertex
	sources   []graph.Vertex
	frontier  []graph.Vertex
	next      []graph.Vertex
	cands     []asgCand
	orphans   []graph.Vertex
	comp      []graph.Vertex
	sizes     []int
	ws        []asgWorker
	shards    []par.Range
	sorter    candSorter
	srcT      srcTask
	lvlT      asgLevelTask
	orphT     orphanTask
}

// grow readies the per-vertex arrays and per-worker arenas.
func (s *assignScratch) grow(n, workers int) {
	s.stamps.Grow(n)
	s.posStamps.Grow(n)
	s.winner, s.posOf = par.Sized(s.winner, n), par.Sized(s.posOf, n)
	for len(s.ws) < workers {
		s.ws = append(s.ws, asgWorker{})
	}
}

// clearPending drops every pending entry (they have all been resolved).
func (e *Engine) clearPending() {
	e.pending.apply(nil, e.pending.list)
	e.pending.list = e.pending.list[:0]
}

// assign is the engine's phase 1: it syncs (collecting the pending set
// from the journal and the assignment diff), normalizes stale dead
// assignments, maps every pending live vertex to the partition of the
// nearest assigned vertex, and places unreachable clusters on the
// least-loaded partitions — bit-identical to the one-shot Assign oracle,
// at cost proportional to the new region plus its labeled rim. With
// Options.FullRefresh it delegates to the oracle outright.
func (e *Engine) assign(a *partition.Assignment) (assigned, clusterFallbacks int, err error) {
	e.sync(a)
	if e.opt.FullRefresh {
		e.clearPending()
		return Assign(e.g, a)
	}
	s := &e.asg
	n := e.csr.Order()

	// Resolve the pending set: normalize dead vertices that still carry
	// an assignment, drop entries the caller assigned meanwhile, keep
	// the genuinely new (ascending, as the set lists them). Entries are only
	// cleared on success, so an errored call retries with nothing lost.
	// Phase 1 writes only pending vertices (an orphan cluster's unassigned
	// region is all pending too), so the list is its write log.
	e.written = append(e.written, e.pending.list...)
	seeds := s.seeds[:0]
	for _, v := range e.pending.list {
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
		return 0, 0, errNoOldVertices
	}
	if len(seeds) == 0 {
		e.clearPending()
		return 0, 0, nil
	}

	// Sources: the assigned rim of the unassigned region — every labeled
	// neighbor of a seed, deduped by claim and sorted ascending (the
	// relative order the oracle's all-labeled initial queue gives them,
	// since non-rim labeled vertices discover nothing).
	s.grow(n, e.procs)
	s.stamps.Next()
	s.shards = par.Split(s.shards[:0], len(seeds), par.Workers(e.procs, len(seeds), parAsgMin))
	s.srcT = srcTask{e: e, a: a}
	e.group.Run(len(s.shards), &s.srcT)
	s.srcT = srcTask{}
	sources := s.sources[:0]
	for w := range s.shards {
		sources = append(sources, s.ws[w].srcs...)
	}
	slices.Sort(sources)
	s.sources = sources

	// BFS out of the rim, restricted to unassigned vertices.
	for i, v := range sources {
		s.winner[v] = a.Part[v]
		s.posOf[v] = int32(i)
	}
	frontier := append(s.frontier[:0], sources...)
	next := s.next[:0]
	for len(frontier) > 0 {
		s.posStamps.Next()
		for i, v := range frontier {
			s.posStamps.TryMark(v)
			s.posOf[v] = int32(i)
		}
		s.shards = par.Split(s.shards[:0], len(frontier), par.Workers(e.procs, len(frontier), parAsgMin))
		s.lvlT = asgLevelTask{e: e, a: a, frontier: frontier}
		e.group.Run(len(s.shards), &s.lvlT)
		s.lvlT = asgLevelTask{}
		cands := s.cands[:0]
		for w := range s.shards {
			cands = append(cands, s.ws[w].cands...)
		}
		s.sorter.cs = cands
		sort.Sort(&s.sorter)
		s.sorter.cs = nil
		s.cands = cands
		next = next[:0]
		for _, c := range cands {
			next = append(next, c.v)
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier[:0], next[:0]

	// Apply winners in ascending seed order (the oracle's application
	// order), tracking partition sizes for the orphan fallback.
	sizes := append(s.sizes[:0], e.partSizes...)
	orphans := s.orphans[:0]
	for _, v := range seeds {
		if s.stamps.Marked(v) {
			p := s.winner[v]
			a.Part[v] = p
			sizes[p]++
			assigned++
		} else {
			orphans = append(orphans, v)
		}
	}
	s.orphans = orphans
	s.sizes = sizes

	// Disconnected new clusters: flood each component within the
	// unassigned region (ascending first-seed order, the oracle's
	// component order) and place it whole on the least-loaded partition.
	// The flood is level-synchronous so large components shard over the
	// worker group; membership is a claim, and the component *set* is a
	// graph property independent of visit order, so the uniform
	// per-component assignment (and the least-loaded choice, which sees
	// only component sizes in ascending first-seed order) is bit-identical
	// for every worker count.
	comp := s.comp[:0]
	for _, seed := range orphans {
		if !s.stamps.TryMark(seed) {
			continue // already swept into an earlier cluster
		}
		comp = append(comp[:0], seed)
		for lo := 0; lo < len(comp); {
			hi := len(comp)
			frontier := comp[lo:hi]
			s.shards = par.Split(s.shards[:0], len(frontier), par.Workers(e.procs, len(frontier), parAsgMin))
			s.orphT = orphanTask{e: e, a: a, frontier: frontier}
			e.group.Run(len(s.shards), &s.orphT)
			s.orphT = orphanTask{}
			for w := range s.shards {
				comp = append(comp, s.ws[w].srcs...)
			}
			lo = hi
		}
		best := 0
		for q := 1; q < a.P; q++ {
			if sizes[q] < sizes[best] {
				best = q
			}
		}
		for _, v := range comp {
			a.Part[v] = int32(best)
			assigned++
		}
		sizes[best] += len(comp)
		clusterFallbacks++
	}
	s.comp = comp

	e.clearPending()
	return assigned, clusterFallbacks, nil
}

// srcTask collects one seed-shard's labeled neighbors (the BFS rim).
type srcTask struct {
	e *Engine
	a *partition.Assignment
}

func (t *srcTask) Do(w int) {
	e := t.e
	s := &e.asg
	ws := &s.ws[w]
	ws.srcs = ws.srcs[:0]
	sh := s.shards[w]
	for _, v := range s.seeds[sh.Lo:sh.Hi] {
		for _, u := range e.csr.Row(v) {
			if t.a.Part[u] >= 0 && s.stamps.Claim(u) {
				ws.srcs = append(ws.srcs, u)
			}
		}
	}
}

// orphanTask expands one shard of an orphan component's frontier:
// unassigned neighbors are claimed into the worker's private list and
// merged in shard order. Only membership matters downstream (the whole
// component gets one partition), so no discoverer bookkeeping is needed.
type orphanTask struct {
	e        *Engine
	a        *partition.Assignment
	frontier []graph.Vertex
}

func (t *orphanTask) Do(w int) {
	e := t.e
	s := &e.asg
	ws := &s.ws[w]
	ws.srcs = ws.srcs[:0]
	sh := s.shards[w]
	for _, v := range t.frontier[sh.Lo:sh.Hi] {
		for _, u := range e.csr.Row(v) {
			if t.a.Part[u] < 0 && s.stamps.Claim(u) {
				ws.srcs = append(ws.srcs, u)
			}
		}
	}
}

// asgLevelTask expands one shard of the current frontier: unassigned
// neighbors are claimed (membership), then each claimed vertex computes
// its canonical discoverer deterministically — claim racing never
// reaches the result.
type asgLevelTask struct {
	e        *Engine
	a        *partition.Assignment
	frontier []graph.Vertex
}

func (t *asgLevelTask) Do(w int) {
	e := t.e
	s := &e.asg
	ws := &s.ws[w]
	ws.cands = ws.cands[:0]
	sh := s.shards[w]
	for _, v := range t.frontier[sh.Lo:sh.Hi] {
		for _, u := range e.csr.Row(v) {
			if t.a.Part[u] >= 0 || !s.stamps.Claim(u) {
				continue
			}
			// Canonical discoverer: the current-frontier neighbor with
			// the smallest frontier position. posStamps and posOf are
			// written only between regions, so the reads are race-free.
			minpos := int32(math.MaxInt32)
			var disc graph.Vertex
			for _, nb := range e.csr.Row(u) {
				if s.posStamps.Marked(nb) && s.posOf[nb] < minpos {
					minpos = s.posOf[nb]
					disc = nb
				}
			}
			var rowIdx uint32
			for j, x := range e.csr.Row(disc) {
				if x == u {
					rowIdx = uint32(j)
					break
				}
			}
			s.winner[u] = s.winner[disc]
			ws.cands = append(ws.cands, asgCand{key: uint64(uint32(minpos))<<32 | uint64(rowIdx), v: u})
		}
	}
}
