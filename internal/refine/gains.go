// The gains kernel: the row kernel (RowScan.Scan), Store — which stores a
// vertex's class and logs a change — and one pass (patch) rebuilding the
// pools a class log names. GainsSeeded builds the pools from scratch with
// Scan; GainsPatched updates the previous call's from a log of classes the
// caller found itself (the engine, from its connectivity cache, by
// Prefer's rule).
//
// A vertex's class — the pair pool it belongs to and its gain — is a pure
// function of its own partition, its adjacency row and its neighbours'
// partitions, and a pool is its member set under the total order (gain
// descending, id ascending). So after a change only the vertices whose
// inputs changed need re-classifying, only the pools one of them entered
// or left need rebuilding, and the result equals a from-scratch scan's
// exactly.
package refine

import (
	"cmp"
	"errors"
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
	// non-candidates): integer weights, so an exact integer within int32.
	Gain []int32

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
	gain int32
}

// cmpCand is the pool order: best gain first, vertex id as tiebreak — a
// total order, so a pool's layout depends only on its member set.
func cmpCand(a, b cand) int {
	if c := cmp.Compare(b.gain, a.gain); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// RowScan is the arena of the row kernel, Scan. The zero value is
// ready.
type RowScan struct {
	out     []int64 // per-partition arc weight out of v; zero between calls
	touched []int32 // partitions with a nonzero out entry
}

// Scan is the row kernel: one read of v's row under a yields v's class —
// its pool under the loose test (i*P+j; -1: none) and gain out(v,j) −
// in(v), sums of integer weights. v joins only the pool of its best
// foreign partition (Prefer), so pools are disjoint and Apply never moves
// a vertex twice, which would break the balance the zero-net-flow rows
// guarantee; the strict class is the same when the gain is positive,
// none otherwise. An arc to an unassigned vertex or an out-of-range
// partition counts toward no pool, and an unassigned or out-of-range v
// has no class.
func (r *RowScan) Scan(c *graph.CSR, a *partition.Assignment, v graph.Vertex) (pair, gain int32) {
	pv := a.Part[v]
	if !c.Live[v] || pv < 0 || int(pv) >= a.P {
		return -1, 0
	}
	if len(r.out) < a.P {
		r.out = make([]int64, a.P)
	}
	out, touched := r.out[:a.P], r.touched[:0]
	var in int64
	wts := c.RowWeights(v)
	for k, u := range c.Row(v) {
		switch pu, w := a.Part[u], int64(wts[k]); {
		case pu == pv:
			in += w
		case pu >= 0 && int(pu) < len(out):
			if out[pu] == 0 { // (a zero weight may list pu twice: harmless)
				touched = append(touched, pu)
			}
			out[pu] += w
		}
	}
	best, bestG := int32(-1), int64(0)
	for _, j := range touched {
		g := out[j] - in
		out[j] = 0
		if Prefer(g, j, bestG, best) {
			best, bestG = j, g
		}
	}
	r.touched = touched[:0]
	if best < 0 {
		return -1, 0
	}
	return pv*int32(a.P) + best, int32(bestG)
}

// Prefer is the class rule: whether a move to partition j at gain g beats
// the best so far (bestG at best; best < 0: none yet). Only a gain ≥ 0
// qualifies, the higher gain wins and a tie goes to the smaller id — a
// total order, so the winner does not depend on the order partitions are
// offered in. Scan and the engine's connectivity cache both decide a
// vertex's class by it.
func Prefer(g int64, j int32, bestG int64, best int32) bool {
	return g >= 0 && (best < 0 || g > bestG || g == bestG && j < best)
}

// Reclass logs one class change: V's class is now the one Reclassify
// stored, From the pool it left (-1: none).
type Reclass struct {
	V    graph.Vertex
	From int32
}

// Scratch holds the state of the gains kernel. The zero value is ready
// to use; buffers grow to the largest graph seen and are reused, so
// steady-state scans allocate nothing. The Candidates returned by its
// methods are owned by the Scratch and invalidated by the next call.
type Scratch struct {
	cands  Candidates
	pair   []int32 // pair[v] = i*P+j of the pool holding v, -1 for none
	strict bool    // the test B currently reflects

	// stamp[v] == gen+1: v's class changed this call (generations advance
	// by two, so a mark is odd and ≥ 3); 1: v was seeded (reset zeroes).
	stamp []uint32
	gen   uint32

	row     RowScan   // the seeded scan's row kernel
	log     []Reclass // the seeded scan's class log
	buckets [][]cand  // per pool: its new entries this call
	stale   []int32   // pair pools to rebuild this call
	isStale []bool
}

// GainsSeeded builds the pools from scratch over a CSR snapshot,
// examining only the seed vertices; strict selects the > 0 candidate
// test instead of ≥ 0. Every candidate has at least one foreign edge, so
// a seed list containing all boundary vertices (duplicates and extras are
// harmless) yields exactly the candidates a full scan — seeded with every
// vertex, g.Vertices() — would find. The assignment must be complete (as
// partition.Assignment.Validate requires) and is not checked: the
// engine's sync decides that before it calls.
func (s *Scratch) GainsSeeded(c *graph.CSR, a *partition.Assignment, strict bool, seeds []graph.Vertex) *Candidates {
	s.reset(c.Order(), a.P, strict)
	log := s.log[:0]
	for _, v := range seeds {
		if s.stamp[v] == 0 { // dedup
			s.stamp[v] = 1
			log = s.Reclassify(&s.row, c, a, v, log)
		}
	}
	s.log = log
	return s.patch(log, strict)
}

// errNotPatchable reports a GainsPatched call the Scratch's previous
// result cannot serve.
var errNotPatchable = errors.New("refine: patched gains need this scratch's pools for the same graph and partition count")

// Reserve readies the class slots for an order-n snapshot; new slots
// start unclassified. Reclassify needs a slot for every vertex it reaches.
func (s *Scratch) Reserve(n int) {
	if old := len(s.pair); old < n {
		s.pair, s.cands.Gain, s.stamp = par.Sized(s.pair, n), par.Sized(s.cands.Gain, n), par.Sized(s.stamp, n)
		for v := old; v < n; v++ {
			s.pair[v], s.cands.Gain[v], s.stamp[v] = -1, 0, 0
		}
	}
}

// Reclassify reads v's row once (Scan) and stores v's class (Store).
func (s *Scratch) Reclassify(r *RowScan, c *graph.CSR, a *partition.Assignment, v graph.Vertex, log []Reclass) []Reclass {
	k, g := r.Scan(c, a, v)
	return s.Store(v, k, g, log)
}

// Store stores class (k, g) — Scan's result for v, however it was found —
// as v's. When the class changed it appends a Reclass to log. The caller
// has Reserved v's slot.
func (s *Scratch) Store(v graph.Vertex, k, g int32, log []Reclass) []Reclass {
	if k != s.pair[v] || g != s.cands.Gain[v] {
		log = append(log, Reclass{v, s.pair[v]})
		s.pair[v], s.cands.Gain[v] = k, g
	}
	return log
}

// GainsPatched brings the previous call's pools up to date with (c, a)
// from log, the class changes Reclassify stored since, in order; it reads
// no row. The result equals GainsSeeded's over the current boundary when
// every vertex whose partition, row or liveness changed, and each
// neighbour of one whose partition changed, was reclassified since. A
// vertex reclassified by several syncs (A→B→A) has a record per change:
// the first names its pool, the stored class (the last) wins. strict may
// differ from the previous call's. The assignment must be complete, as
// for GainsSeeded, and is not checked.
func (s *Scratch) GainsPatched(c *graph.CSR, a *partition.Assignment, strict bool, log []Reclass) (*Candidates, error) {
	if n := c.Order(); a.P != s.cands.P || n != len(s.pair) || len(a.Part) < n {
		return nil, errNotPatchable
	}
	return s.patch(log, strict), nil
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
	s.pair = s.pair[:0]
	s.Reserve(n)
	s.isStale, s.buckets = par.Sized(s.isStale, p*p), par.Sized(s.buckets, p*p)
}

// patch rebuilds the pools log's vertices left or entered and brings B up
// to date with the strict flag.
func (s *Scratch) patch(log []Reclass, strict bool) *Candidates {
	s.gen += 2
	if s.gen < 2 { // wrapped: the stale stamps are ambiguous, clear them
		clear(s.stamp[:cap(s.stamp)])
		s.gen = 2
	}
	for _, r := range log {
		if s.stamp[r.V] == s.gen+1 {
			continue // only a vertex's first record names a pool it is in
		}
		s.stamp[r.V] = s.gen + 1
		s.markStale(r.From)
		if k := s.pair[r.V]; k >= 0 {
			s.markStale(k)
			s.buckets[k] = append(s.buckets[k], cand{r.V, s.cands.Gain[r.V]})
		}
	}
	cands, p := &s.cands, s.cands.P
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

// markStale queues pool k (none when negative) for this call's rebuild.
func (s *Scratch) markStale(k int32) {
	if k >= 0 && !s.isStale[k] {
		s.isStale[k] = true
		s.stale = append(s.stale, k)
	}
}

// rebuild brings pool k up to date: the vertices that left it (or
// re-entered with another gain) are filtered out, the new entries are
// sorted and merged in. The survivors kept their gains, so they are
// still in pool order.
func (s *Scratch) rebuild(k int32) {
	c := &s.cands
	add := s.buckets[k]
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
	s.buckets[k] = add[:0]
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
