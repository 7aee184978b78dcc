// Package layering implements the paper's Step 2 (Figure 3): inside each
// partition, label every vertex with the closest foreign partition and its
// BFS distance (level) from that partition's boundary.
//
// The labels drive both later phases: δ(i,j) — the number of vertices of
// partition i labeled j — upper-bounds the balance LP's movement variables
// l(i,j), and the per-pair vertex pools, ordered boundary-first, tell the
// mover exactly which vertices realize a flow with the least damage to
// partition shape.
//
// # Layering on demand
//
// There is one kernel with two entry steps, both over a caller-owned CSR
// snapshot and a Scratch whose buffers are reused across calls (steady
// state allocates nothing). Scratch.Rim is the level-0 pass for every
// partition: it examines only a seed list (any superset of the boundary),
// labels the rim and counts δ₀. Scratch.Complete finishes chosen
// partitions: the level-synchronous BFS of Figure 3 run from their rims
// only, δ updated as levels join. A partition's BFS never leaves it and a
// level-ℓ label never depends on a deeper level, so after any sequence of
// steps every label, level and δ row of a finished partition — and every
// rim label — is exactly the full layering's, δ of an unfinished
// partition is a lower bound with the same nonzero pairs (interior labels
// are inherited from the rim), and Pool(i,j) is an exact prefix of the
// full pool. LayerSeeded is Rim followed by Complete of every partition;
// Layer is the one-shot wrapper that snapshots the graph and seeds with
// every live vertex. The engine's balance stage solves its LP on the rim
// bounds and finishes only the partitions with a bound the optimum
// reaches at a strictly negative reduced cost.
//
// Pools are ordered lazily, one pair at a time, the first time Pool(i,j)
// is asked for: only then are the pair's attachments (edges into the
// label partition) counted and its levels sorted, so no step scans the
// whole graph or sorts a vertex no flow will move.
//
// # Determinism
//
// The kernel runs on the calling goroutine. A level-(ℓ+1) label depends
// only on the level-ℓ labeling, so the BFS writes each label as soon as it
// computes it: a label written earlier in the same level cannot feed
// another. Pool layout is a total order over (level, attachment, id), so
// the Result is a function of the graph and the assignment alone, whatever
// the seed order — checked against a naive Figure-3 reference
// (FuzzLayerOnDemand).
package layering

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// Result is the layering of a partitioned graph: complete after
// LayerSeeded, and after Rim complete only for the partitions Complete
// has finished since (Done).
type Result struct {
	P int
	// Label[v] is the closest foreign partition of v, or −1 when v is dead,
	// cannot reach its partition's boundary, or lies in the interior of an
	// unfinished partition.
	Label []int32
	// Level[v] is v's BFS distance from the boundary with Label[v]
	// (0 = on the boundary), or −1 when Label[v] is −1.
	Level []int32
	// Delta[i][j] is δ(i,j): how many vertices of partition i are labeled
	// with partition j — so far, when partition i is unfinished.
	Delta [][]int
	// pools[i][j] lists partition i's vertices labeled j in discovery
	// order (levels never decrease along it); its first ordered[i*P+j]
	// entries are already in pool order.
	pools   [][][]graph.Vertex
	ordered []int32
	done    []bool
	// The snapshot and assignment the labels describe: Pool counts
	// attachments against them.
	c    *graph.CSR
	a    *partition.Assignment
	keys []poolKey
}

// poolKey is one pool entry with its sort key.
type poolKey struct {
	level, att int32
	v          graph.Vertex
}

// Done reports whether partition i is finished: labeled to full depth.
func (r *Result) Done(i int32) bool { return r.done[i] }

// Pool returns partition i's vertices labeled j (so far, when i is
// unfinished) in (level, attachment descending, id) order: vertices
// closer to the boundary move first, and within a level those with the
// most edges into the destination partition — realizing a flow this way
// peels coherent boundary bands instead of scattering moves, which keeps
// the cut low across repeated repartitionings. The order is established
// on the first call per pair, counting attachments under the assignment
// as it is then: a caller that moves vertices must ask for every pool it
// will consume before the first move (balance.Apply does). The returned
// slice is owned by the Result and must not be modified.
func (r *Result) Pool(i, j int32) []graph.Vertex {
	pool := r.pools[i][j]
	if k := &r.ordered[int(i)*r.P+int(j)]; int(*k) < len(pool) {
		// Complete appends only levels deeper than any already ordered, so
		// the tail sorts on its own.
		r.order(pool[*k:], j)
		*k = int32(len(pool))
	}
	return pool
}

// order sorts vs, all labeled lab, into pool order.
func (r *Result) order(vs []graph.Vertex, lab int32) {
	keys := r.keys[:0]
	for _, v := range vs {
		var att int32
		for _, u := range r.c.Row(v) {
			if r.a.Part[u] == lab {
				att++
			}
		}
		keys = append(keys, poolKey{level: r.Level[v], att: att, v: v})
	}
	slices.SortFunc(keys, func(x, y poolKey) int {
		if x.level != y.level {
			return cmp.Compare(x.level, y.level)
		}
		if x.att != y.att {
			return cmp.Compare(y.att, x.att)
		}
		return cmp.Compare(x.v, y.v)
	})
	for k, key := range keys {
		vs[k] = key.v
	}
	r.keys = keys[:0]
}

// Scratch holds the reusable state of the layering kernel. The zero value
// is ready to use; buffers grow to the largest graph seen and are then
// reused, so repeated layering of a stable-size graph allocates nothing.
// The Result returned by Rim and LayerSeeded is owned by the Scratch,
// extended in place by Complete and invalidated by the next Rim or
// LayerSeeded; until then it keeps the snapshot and the assignment it
// was given.
type Scratch struct {
	res      Result
	frontier []graph.Vertex
	nextBuf  []graph.Vertex
	parts    []int32
	counts   []int   // per-partition label votes; all zero between votes
	touched  []int32 // partitions with a nonzero count
}

// bestLabel picks the winning label from a non-empty candidate list:
// the most-counted entry of touched, ties toward the smaller partition
// id. It resets the counts it examined, restoring the all-zero scratch
// invariant. Level 0 and the interior levels both select labels through
// this one function, so the tie-break rule is single-sourced.
func bestLabel(counts []int, touched []int32) int32 {
	best := touched[0]
	for _, k := range touched[1:] {
		if counts[k] > counts[best] || (counts[k] == counts[best] && k < best) {
			best = k
		}
	}
	for _, k := range touched {
		counts[k] = 0
	}
	return best
}

// Layer runs the layering algorithm to full depth over a fresh snapshot
// of g, seeded with every live vertex. It is the entry for unchecked
// input, so it validates a first (partition.Assignment.Validate).
func Layer(g *graph.Graph, a *partition.Assignment) (*Result, error) {
	if err := a.Validate(g); err != nil {
		return nil, fmt.Errorf("layering: %w", err)
	}
	var s Scratch
	return s.LayerSeeded(context.Background(), g.ToCSR(), a, g.Vertices())
}

// grow readies the scratch for an order-n, P-partition run.
func (s *Scratch) grow(n, p int) *Result {
	r := &s.res
	r.P = p
	r.Label = par.Sized(r.Label, n)
	r.Level = par.Sized(r.Level, n)
	for i := range r.Label[:n] {
		r.Label[i] = -1
		r.Level[i] = -1
	}
	if cap(r.Delta) < p {
		r.Delta = make([][]int, p)
		r.pools = make([][][]graph.Vertex, p)
		r.done = make([]bool, p)
	}
	r.Delta, r.pools, r.done = r.Delta[:p], r.pools[:p], r.done[:p]
	r.ordered = par.Sized(r.ordered, p*p)
	clear(r.ordered)
	clear(r.done)
	for i := 0; i < p; i++ {
		if cap(r.Delta[i]) < p {
			r.Delta[i] = make([]int, p)
			r.pools[i] = make([][]graph.Vertex, p)
		}
		r.Delta[i], r.pools[i] = r.Delta[i][:p], r.pools[i][:p]
		clear(r.Delta[i])
		for j := range r.pools[i] {
			r.pools[i][j] = r.pools[i][j][:0]
		}
	}
	for len(s.counts) < p {
		s.counts = append(s.counts, 0)
	}
	return r
}

// enter records v, just labeled, in its pair's pool and in δ.
func (r *Result) enter(v graph.Vertex) {
	i, j := r.a.Part[v], r.Label[v]
	r.pools[i][j] = append(r.pools[i][j], v)
	r.Delta[i][j]++
}

// LayerSeeded runs the kernel to full depth — Rim, then Complete of every
// partition — under Rim's snapshot and seed contract. The context is
// polled once per BFS level (the natural yield point of the
// level-synchronous traversal); a done context aborts with an error
// matching cancel.ErrCanceled and leaves the Scratch reusable.
func (s *Scratch) LayerSeeded(ctx context.Context, c *graph.CSR, a *partition.Assignment, seeds []graph.Vertex) (*Result, error) {
	r := s.Rim(c, a, seeds)
	if _, err := s.Complete(ctx, s.All()); err != nil {
		return nil, err
	}
	return r, nil
}

// All lists every partition of the current Result, for Complete. The
// slice is owned by the Scratch.
func (s *Scratch) All() []int32 {
	s.parts = s.parts[:0]
	for i := 0; i < s.res.P; i++ {
		s.parts = append(s.parts, int32(i))
	}
	return s.parts
}

// Rim is the level-0 step for every partition over a CSR snapshot, which
// must reflect the graph the assignment covers: each boundary vertex is
// labeled with the foreign partition it touches most and δ counts the
// rim. Only the seed vertices are examined, so the pass costs
// O(Σ deg(seed)) instead of a full scan of every arc: seeds must contain
// every live vertex with at least one foreign neighbor (extra or
// duplicate vertices are harmless), and the result then depends on the
// graph and the assignment alone. The assignment must be complete (as
// partition.Assignment.Validate requires) and is not checked: the
// engine's sync decides that before it calls, and Layer validates.
func (s *Scratch) Rim(c *graph.CSR, a *partition.Assignment, seeds []graph.Vertex) *Result {
	r := s.grow(c.Order(), a.P)
	r.c, r.a = c, a

	// A live seed with foreign neighbors takes the foreign partition it
	// touches the most (ties toward the smaller partition id) at level 0.
	// A duplicate seed is already labeled, or finds no foreign neighbor
	// again.
	counts := s.counts
	for _, v := range seeds {
		if !c.Live[v] || r.Label[v] >= 0 {
			continue
		}
		pv := a.Part[v]
		touched := s.touched[:0]
		for _, u := range c.Row(v) {
			pu := a.Part[u]
			if pu != pv {
				if counts[pu] == 0 {
					touched = append(touched, pu)
				}
				counts[pu]++
			}
		}
		s.touched = touched[:0]
		if len(touched) == 0 {
			continue
		}
		r.Label[v] = bestLabel(counts, touched)
		r.Level[v] = 0
		r.enter(v)
	}
	return r
}

// Complete finishes the listed partitions of the current Result (those
// not finished yet) and returns how many that was: Figure 3's interior
// levels, run from their rims only. Each level labels the unlabeled
// same-partition neighbors of its frontier in discovery order from the
// level-ℓ labeling and enters each in its pool, δ and the next frontier.
// A canceled call leaves the Result unusable and the Scratch ready for the
// next Rim.
func (s *Scratch) Complete(ctx context.Context, parts []int32) (int, error) {
	r := &s.res
	frontier, finished := s.frontier[:0], 0
	for _, i := range parts {
		if r.done[i] {
			continue
		}
		r.done[i] = true
		finished++
		for _, pool := range r.pools[i] { // an unfinished partition holds its rim only
			frontier = append(frontier, pool...)
		}
	}
	next := s.nextBuf[:0]
	part := r.a.Part
	var err error
	for level := int32(0); len(frontier) > 0; level++ {
		if err = cancel.Check(ctx, "layering BFS"); err != nil {
			break
		}
		next = next[:0]
		for _, v := range frontier {
			pv := part[v]
			for _, u := range r.c.Row(v) {
				if part[u] != pv || r.Label[u] >= 0 {
					continue
				}
				if lab := s.labelFor(u, level); lab >= 0 {
					r.Label[u], r.Level[u] = lab, level+1
					r.enter(u)
					next = append(next, u)
				}
			}
		}
		frontier, next = next, frontier
	}
	// Hand the grown buffers back (also on abort).
	s.frontier = frontier[:0]
	s.nextBuf = next[:0]
	return finished, err
}

// labelFor computes the level-(level+1) label of discovered vertex u:
// the label most common among its same-partition level-`level`
// neighbors, ties toward the smaller partition id. It returns -1 when u
// has no support at that level, which cannot happen for a vertex
// discovered from the level-`level` frontier.
func (s *Scratch) labelFor(u graph.Vertex, level int32) int32 {
	r := &s.res
	part := r.a.Part
	pu := part[u]
	counts := s.counts
	touched := s.touched[:0]
	for _, nb := range r.c.Row(u) {
		if part[nb] != pu {
			continue
		}
		if r.Label[nb] >= 0 && r.Level[nb] == level {
			k := r.Label[nb]
			if counts[k] == 0 {
				touched = append(touched, k)
			}
			counts[k]++
		}
	}
	s.touched = touched[:0]
	if len(touched) == 0 {
		return -1
	}
	return bestLabel(counts, touched)
}

// Validate checks internal consistency of a layering against its graph
// and assignment; it is used by tests and the property suite.
func (r *Result) Validate(g *graph.Graph, a *partition.Assignment) error {
	for v := 0; v < g.Order(); v++ {
		lab, lev := r.Label[v], r.Level[v]
		if !g.Alive(graph.Vertex(v)) {
			if lab != -1 || lev != -1 {
				return fmt.Errorf("layering: dead vertex %d labeled", v)
			}
			continue
		}
		if (lab < 0) != (lev < 0) {
			return fmt.Errorf("layering: vertex %d has label %d but level %d", v, lab, lev)
		}
		if lab < 0 {
			continue
		}
		if lab == a.Part[v] {
			return fmt.Errorf("layering: vertex %d labeled with its own partition", v)
		}
		if lev == 0 {
			// Must touch partition lab.
			ok := false
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				if a.Part[u] == lab {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("layering: boundary vertex %d does not touch partition %d", v, lab)
			}
		} else {
			// Must have a same-partition neighbor one level down.
			ok := false
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				if a.Part[u] == a.Part[v] && r.Level[u] == lev-1 {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("layering: vertex %d at level %d has no level-%d support", v, lev, lev-1)
			}
		}
	}
	// δ must match pools.
	for i := 0; i < r.P; i++ {
		for j := 0; j < r.P; j++ {
			if len(r.pools[i][j]) != r.Delta[i][j] {
				return fmt.Errorf("layering: pool(%d,%d) has %d vertices, δ=%d", i, j, len(r.pools[i][j]), r.Delta[i][j])
			}
		}
	}
	return nil
}
