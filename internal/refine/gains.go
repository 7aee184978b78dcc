// The gains kernel: one classifier and one scan path that builds the
// candidate pools from scratch (GainsSeeded) or patches the pools a
// previous call left behind (GainsPatched).
//
// A vertex's class — the pair pool it belongs to and its gain — is a pure
// function of its own partition, its adjacency row and its neighbours'
// partitions, and a pool is its member set under the total order (gain
// descending, id ascending). So after a change only the vertices whose
// inputs changed need re-classifying, only the pools one of them entered
// or left need rebuilding, and the result equals a from-scratch scan's
// exactly. The scan is sharded over Procs workers: the deduped vertex
// list is split into contiguous shards, each worker classifies into a
// private arena, and the join concatenates per-pair buckets in worker
// order before the total-order sort — so the produced Candidates are
// bit-identical for every worker count. Procs <= 1 runs the same code
// inline through par.Group.Run.
package refine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// Candidates holds the per-pair movable vertex pools of one refinement
// round.
type Candidates struct {
	P int
	// B[i][j] = b(i,j): number of candidate vertices in partition i whose
	// move to j does not increase (loose) or strictly decreases (strict)
	// the cut.
	B [][]int
	// pools[i][j] lists the loose candidates, best gain first; the strict
	// ones are the positive-gain prefix, so either test's pool is the
	// first B[i][j] entries.
	pools [][][]graph.Vertex
	// Gain[v] is out(v, best j) − in(v) for bookkeeping (0 for
	// non-candidates).
	Gain []float64

	// log is what the last Apply moved, in move order, with the partition
	// each vertex left.
	log []move
}

type move struct {
	v    graph.Vertex
	from int32
}

// Pool returns the candidates for the (i,j) pair, best gain first.
func (c *Candidates) Pool(i, j int32) []graph.Vertex { return c.pools[i][j][:c.B[i][j]] }

type cand struct {
	v    graph.Vertex
	gain float64
}

// cmpCand is the pool order: best gain first, vertex id as tiebreak — a
// total order, so a pool's layout depends only on its member set.
func cmpCand(a, b cand) int {
	if c := cmp.Compare(b.gain, a.gain); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// parScanMin is the deduped vertex count below which the scan runs as
// one shard instead of forking the worker group. The cutoff depends only
// on the list length, and the result is worker-count independent anyway.
const parScanMin = 48

// Scratch holds the state of the gains kernel. The zero value is ready
// to use; buffers grow to the largest graph seen and are reused, so
// steady-state scans allocate nothing. The Candidates returned by its
// methods are owned by the Scratch and invalidated by the next call.
//
// Procs is the worker count (<= 1: inline). Group, when non-nil, is the
// shared fork-join executor (the engine passes its own so per-worker
// busy times roll up across kernels); nil uses a private one.
type Scratch struct {
	Procs int
	Group *par.Group

	cands  Candidates
	pair   []int32 // pair[v] = i*P+j of the pool holding v, -1 for none
	strict bool    // the test B currently reflects

	// stamp[v] == gen: v was classified this call; gen+1: and its class
	// changed. Generations advance by two.
	stamp []uint32
	gen   uint32

	ownGroup par.Group
	gws      []gainWorker // gws[0] is also the join's merge target
	list     []graph.Vertex
	shards   []par.Range
	task     gainsTask
	stale    []int32 // pair pools to rebuild this call
	isStale  []bool
}

// gainWorker is one worker's private arena. pairs lists the pools its
// shard entered or left, so the join touches those instead of all P².
type gainWorker struct {
	out     []float64
	touched []int32
	buckets [][]cand
	pairs   []int32
}

// Gains scans every vertex and builds the candidate pools. strict selects
// the > 0 test instead of ≥ 0.
func Gains(g *graph.Graph, a *partition.Assignment, strict bool) (*Candidates, error) {
	var s Scratch
	return s.GainsSeeded(g.ToCSR(), a, strict, g.Vertices())
}

// GainsSeeded builds the pools from scratch over a CSR snapshot,
// examining only the seed vertices. Every candidate has at least one
// foreign edge, so a seed list containing all boundary vertices
// (duplicates and extras are harmless) yields exactly the candidates a
// full scan would find.
func (s *Scratch) GainsSeeded(c *graph.CSR, a *partition.Assignment, strict bool, seeds []graph.Vertex) (*Candidates, error) {
	if err := a.ValidateCSR(c); err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	s.reset(c.Order(), a.P, strict)
	return s.scan(c, a, strict, seeds), nil
}

// errNotPatchable reports a GainsPatched call the Scratch's previous
// result cannot serve.
var errNotPatchable = errors.New("refine: patched gains need this scratch's pools for the same graph and partition count")

// GainsPatched brings the pools of the Scratch's previous call up to
// date with (c, a) by re-classifying only the dirty vertices. dirty must
// contain every vertex whose partition, adjacency row or liveness
// changed since that call, and every neighbour of a vertex whose
// partition changed — except that a vertex with no foreign neighbour
// both then and now may be left out: it was and stays unclassified.
// Duplicates and extras are harmless. The result then equals
// GainsSeeded's over the current boundary exactly; the strict flag is
// free to differ from the previous call's. Only the dirty vertices are
// validated: the caller vouches that every other live vertex is still
// assigned.
func (s *Scratch) GainsPatched(c *graph.CSR, a *partition.Assignment, strict bool, dirty []graph.Vertex) (*Candidates, error) {
	n := c.Order()
	if a.P != s.cands.P || n < len(s.pair) || len(a.Part) < n {
		return nil, errNotPatchable
	}
	for _, v := range dirty {
		if p := a.Part[v]; c.Live[v] != (p >= 0) || int(p) >= a.P || p < partition.Unassigned {
			return nil, fmt.Errorf("refine: %w", a.ValidateCSR(c))
		}
	}
	// New vertex slots start unclassified.
	if old := len(s.pair); old < n {
		s.pair, s.cands.Gain, s.stamp = par.Sized(s.pair, n), par.Sized(s.cands.Gain, n), par.Sized(s.stamp, n)
		for v := old; v < n; v++ {
			s.pair[v], s.cands.Gain[v], s.stamp[v] = -1, 0, 0
		}
	}
	return s.scan(c, a, strict, dirty), nil
}

// reset empties the pools and unclassifies every vertex.
func (s *Scratch) reset(n, p int, strict bool) {
	c := &s.cands
	c.P = p
	s.strict = strict
	if cap(c.B) < p {
		c.B = make([][]int, p)
		c.pools = make([][][]graph.Vertex, p)
	}
	c.B, c.pools = c.B[:p], c.pools[:p]
	for i := 0; i < p; i++ {
		if cap(c.B[i]) < p {
			c.B[i] = make([]int, p)
			c.pools[i] = make([][]graph.Vertex, p)
		}
		c.B[i], c.pools[i] = c.B[i][:p], c.pools[i][:p]
		for j := range c.B[i] {
			c.B[i][j] = 0
			c.pools[i][j] = c.pools[i][j][:0]
		}
	}
	c.Gain, s.pair, s.stamp = par.Sized(c.Gain, n), par.Sized(s.pair, n), par.Sized(s.stamp, n)
	for v := range c.Gain {
		c.Gain[v] = 0
		s.pair[v] = -1
	}
	s.isStale = par.Sized(s.isStale, p*p)
}

// scan classifies vs against the recorded classes and rebuilds the pools
// that changed.
func (s *Scratch) scan(c *graph.CSR, a *partition.Assignment, strict bool, vs []graph.Vertex) *Candidates {
	p := a.P
	s.gen += 2
	if s.gen < 2 { // wrapped: the stale stamps are ambiguous, clear them
		clear(s.stamp[:cap(s.stamp)])
		s.gen = 2
	}
	// Dedup, so each vertex is owned by exactly one worker.
	list := s.list[:0]
	for _, v := range vs {
		if s.stamp[v] >= s.gen {
			continue
		}
		s.stamp[v] = s.gen
		list = append(list, v)
	}
	s.list = list

	s.shards = par.Split(s.shards[:0], len(list), par.Workers(s.Procs, len(list), parScanMin))
	for len(s.gws) < len(s.shards) {
		s.gws = append(s.gws, gainWorker{})
	}
	for w := range s.gws[:len(s.shards)] {
		ws := &s.gws[w]
		for len(ws.out) < p {
			ws.out = append(ws.out, 0)
		}
		if cap(ws.buckets) < p*p {
			ws.buckets = make([][]cand, p*p)
		}
		ws.buckets = ws.buckets[:p*p]
	}
	group := s.Group
	if group == nil {
		group = &s.ownGroup
	}
	s.task = gainsTask{s: s, c: c, a: a}
	group.Run(len(s.shards), &s.task)
	// Drop the snapshot/assignment pointers so a long-lived scratch
	// never pins a caller's dropped graph state.
	s.task = gainsTask{}

	// Join: collect the stale pools and concatenate the workers' new
	// entries into worker 0's buckets. Bucket order is erased by the
	// total-order sort in rebuild.
	main := &s.gws[0]
	for w := range s.shards {
		ws := &s.gws[w]
		for _, k := range ws.pairs {
			if !s.isStale[k] {
				s.isStale[k] = true
				s.stale = append(s.stale, k)
			}
			if w > 0 {
				main.buckets[k] = append(main.buckets[k], ws.buckets[k]...)
				ws.buckets[k] = ws.buckets[k][:0]
			}
		}
		ws.pairs = ws.pairs[:0]
	}
	cands := &s.cands
	for _, k := range s.stale {
		s.rebuild(k)
		s.isStale[k] = false
	}
	if strict != s.strict {
		// The test switched: every pool shows a different prefix.
		s.strict = strict
		for i := range cands.pools {
			for j, pool := range cands.pools[i] {
				cands.B[i][j] = s.shown(pool)
			}
		}
	} else {
		for _, k := range s.stale {
			i, j := int(k)/p, int(k)%p
			cands.B[i][j] = s.shown(cands.pools[i][j])
		}
	}
	s.stale = s.stale[:0]
	return cands
}

// gainsTask classifies one shard of the deduped vertex list.
type gainsTask struct {
	s *Scratch
	c *graph.CSR
	a *partition.Assignment
}

// Do re-classifies the shard's vertices and records the ones whose class
// changed: the pool it left and the pool it entered go stale, the new
// entry lands in the worker's bucket. Each v is owned by the calling
// worker, so its pair/Gain/stamp writes are race-free; everything else
// touched is worker-private or a shared read.
func (t *gainsTask) Do(w int) {
	s, c := t.s, t.c
	ws := &s.gws[w]
	sh := s.shards[w]
	gain := s.cands.Gain
	for _, v := range s.list[sh.Lo:sh.Hi] {
		k, g := int32(-1), 0.0
		if c.Live[v] {
			k, g = ws.classify(t.a, v, c.Row(v), c.RowWeights(v))
		}
		old := s.pair[v]
		if k == old && g == gain[v] {
			continue
		}
		s.stamp[v] = s.gen + 1
		s.pair[v], gain[v] = k, g
		if old >= 0 {
			ws.pairs = append(ws.pairs, old)
		}
		if k >= 0 {
			if len(ws.buckets[k]) == 0 {
				ws.pairs = append(ws.pairs, k)
			}
			ws.buckets[k] = append(ws.buckets[k], cand{v, g})
		}
	}
}

// classify returns the pair pool v belongs to under the loose test (-1:
// none) and its gain. A vertex may qualify toward several foreign
// partitions; it joins only the pool of its best one (ties toward the
// smaller id) so the pools are disjoint and Apply can realize any LP
// flow without moving a vertex twice — which would silently break the
// balance the zero-net-flow constraints guarantee. The strict test's
// class is the same whenever the gain is positive, and none otherwise.
func (ws *gainWorker) classify(a *partition.Assignment, v graph.Vertex, adj []graph.Vertex, wts []float64) (int32, float64) {
	pv := a.Part[v]
	var in float64
	out := ws.out
	touched := ws.touched[:0]
	for k, u := range adj {
		pu := a.Part[u]
		if pu == pv {
			in += wts[k]
			continue
		}
		if out[pu] == 0 {
			touched = append(touched, pu)
		}
		out[pu] += wts[k]
	}
	bestJ := int32(-1)
	var bestGain float64
	for _, j := range touched {
		gain := out[j] - in
		out[j] = 0
		if gain < 0 {
			continue
		}
		if bestJ < 0 || gain > bestGain || (gain == bestGain && j < bestJ) {
			bestJ, bestGain = j, gain
		}
	}
	ws.touched = touched[:0]
	if bestJ < 0 {
		return -1, 0
	}
	return pv*int32(a.P) + bestJ, bestGain
}

// rebuild brings pool k up to date: the vertices that left it (or
// re-entered with another gain) are filtered out, the new entries are
// sorted and merged in. The survivors kept their gains, so they are
// still in pool order.
func (s *Scratch) rebuild(k int32) {
	c := &s.cands
	add := s.gws[0].buckets[k]
	slices.SortFunc(add, cmpCand)
	pool := c.pools[int(k)/c.P][int(k)%c.P]
	n := 0
	for _, v := range pool {
		if s.pair[v] == k && s.stamp[v] != s.gen+1 {
			pool[n] = v
			n++
		}
	}
	pool = slices.Grow(pool[:n], len(add))[:n+len(add)]
	// Merge from the back, in place.
	x, w := n-1, len(pool)-1
	for y := len(add) - 1; y >= 0; y-- {
		for x >= 0 && cmpCand(add[y], cand{pool[x], c.Gain[pool[x]]}) < 0 {
			pool[w] = pool[x]
			w--
			x--
		}
		pool[w] = add[y].v
		w--
	}
	c.pools[int(k)/c.P][int(k)%c.P] = pool
	s.gws[0].buckets[k] = add[:0]
}

// shown returns how many of a pool's entries pass the current test: all
// of them under the loose one, the positive-gain prefix under the strict
// one.
func (s *Scratch) shown(pool []graph.Vertex) int {
	if !s.strict {
		return len(pool)
	}
	lo, hi := 0, len(pool)
	for lo < hi {
		mid := int(uint(lo+hi) / 2)
		if s.cands.Gain[pool[mid]] > 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
