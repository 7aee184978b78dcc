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
// bounds and finishes only the partitions whose bound the optimum
// touches.
//
// Pools are ordered lazily, one pair at a time, the first time Pool(i,j)
// is asked for: only then are the pair's attachments (edges into the
// label partition) counted and its levels sorted, so no step scans the
// whole graph or sorts a vertex no flow will move.
//
// # Sharding and determinism
//
// Figure 3 is level-synchronous, so the kernel is sharded: seed and
// frontier lists are split into contiguous count-balanced shards, every
// worker owns a private arena (layerWorker) and the join merges
// per-worker output in shard order. The worker count is a parameter of
// that one path — par.Workers gates each region on its size, and one
// shard runs inline on the calling goroutine. Determinism is structural,
// not scheduled: labels at level ℓ+1 depend only on the completed level-ℓ
// labeling, pool layout is a total order over (level, attachment, id),
// and the only shared mutable state inside a region — the candidate claim
// stamps — decides membership (deterministic) rather than values. The
// produced Result is therefore bit-identical for every worker count and
// every seed order, a property the engine fuzzes
// (FuzzParallelEquivalence) and the tests here check against a naive
// Figure-3 reference (FuzzLayerOnDemand).
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

// Neighbors returns the partitions j with δ(i,j) > 0, in increasing order.
func (r *Result) Neighbors(i int32) []int32 {
	var out []int32
	for j, d := range r.Delta[i] {
		if d > 0 {
			out = append(out, int32(j))
		}
	}
	return out
}

// Scratch holds the reusable state of the layering kernel. The zero value
// is ready to use; buffers grow to the largest graph seen and are then
// reused, so repeated layering of a stable-size graph allocates nothing.
// The Result returned by Rim and LayerSeeded is owned by the Scratch,
// extended in place by Complete and invalidated by the next Rim or
// LayerSeeded; until then it keeps the snapshot and the assignment it
// was given.
//
// Procs is the worker count the level-0 scan and each BFS level expansion
// shard over (<= 1: one shard, run inline). Group, when non-nil, is the
// shared fork-join executor to run regions on (the engine passes its own
// so per-worker busy times roll up across kernels); nil uses a private
// one.
type Scratch struct {
	Procs int
	Group *par.Group

	res      Result
	ownGroup par.Group
	ws       []layerWorker
	stamps   par.Stamps
	seedBuf  []graph.Vertex
	frontier []graph.Vertex
	nextBuf  []graph.Vertex
	parts    []int32
	shards   []par.Range
	lz       levelZeroTask
	lv       levelTask
}

// candLab is one claimed BFS candidate and its computed label.
type candLab struct {
	v   graph.Vertex
	lab int32
}

// layerWorker is one worker's private arena: label-count scratch and
// frontier/candidate output buffers. All grow to the largest call seen
// and are then reused.
type layerWorker struct {
	counts   []int
	touched  []int32
	frontier []graph.Vertex
	cands    []candLab
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
// of g, seeded with every live vertex. Every live vertex must be assigned.
func Layer(g *graph.Graph, a *partition.Assignment) (*Result, error) {
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
	s.stamps.Grow(n)
	return r
}

// fork runs t once per shard of s.shards on the worker group (a single
// shard inline), first readying one private arena per shard.
func (s *Scratch) fork(t par.Task) {
	for len(s.ws) < len(s.shards) {
		s.ws = append(s.ws, layerWorker{})
	}
	for w := range s.ws[:len(s.shards)] {
		ws := &s.ws[w]
		for len(ws.counts) < s.res.P {
			ws.counts = append(ws.counts, 0)
		}
	}
	g := s.Group
	if g == nil {
		g = &s.ownGroup
	}
	g.Run(len(s.shards), t)
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
	r, err := s.Rim(c, a, seeds)
	if err != nil {
		return nil, err
	}
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
// graph and the assignment alone.
func (s *Scratch) Rim(c *graph.CSR, a *partition.Assignment, seeds []graph.Vertex) (*Result, error) {
	if err := a.ValidateCSR(c); err != nil {
		return nil, fmt.Errorf("layering: %w", err)
	}
	r := s.grow(c.Order(), a.P)
	r.c, r.a = c, a

	// The seed list is deduped first (a sharded pass must own each vertex
	// exactly once), then sharded by count. Workers classify boundary
	// vertices into private frontier buffers, entered in shard order.
	s.stamps.Next()
	buf := s.seedBuf[:0]
	for _, v := range seeds {
		if s.stamps.TryMark(v) {
			buf = append(buf, v)
		}
	}
	s.seedBuf = buf
	s.shards = par.Split(s.shards[:0], len(buf), par.Workers(s.Procs, len(buf), parLevelMin))
	s.lz = levelZeroTask{s}
	s.fork(&s.lz)
	for w := range s.shards {
		for _, v := range s.ws[w].frontier {
			r.enter(v)
		}
	}
	return r, nil
}

// Complete finishes the listed partitions of the current Result (those
// not finished yet) and returns how many that was: Figure 3's interior
// levels, run from their rims only. Workers shard the frontier, claim
// undiscovered same-partition neighbors through the atomic stamp, and
// compute each claimed vertex's label immediately — the label inputs are
// the completed level-ℓ labeling, which nothing writes during the region.
// The join then applies the labels, enters them in pools and δ, and
// concatenates the next frontier in worker order. Which worker wins a
// claim decides only discovery order, and no Result field depends on
// that. A canceled call leaves the Result unusable and the Scratch ready
// for the next Rim.
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
	s.stamps.Next() // fresh generation: earlier marks must not mask claims
	next := s.nextBuf[:0]
	var err error
	for level := int32(0); len(frontier) > 0; level++ {
		if err = cancel.Check(ctx, "layering BFS"); err != nil {
			break
		}
		// A deep narrow layering must not pay a fork-join per ring:
		// small frontiers are one shard.
		s.shards = par.Split(s.shards[:0], len(frontier), par.Workers(s.Procs, len(frontier), parLevelMin))
		s.lv = levelTask{s: s, frontier: frontier, level: level}
		s.fork(&s.lv)
		next = next[:0]
		for w := range s.shards {
			for _, cl := range s.ws[w].cands {
				r.Label[cl.v] = cl.lab
				r.Level[cl.v] = level + 1
				r.enter(cl.v)
				next = append(next, cl.v)
			}
		}
		frontier, next = next, frontier
	}
	// Hand the grown buffers back (also on abort).
	s.frontier = frontier[:0]
	s.nextBuf = next[:0]
	return finished, err
}

// levelZeroTask classifies one shard of the deduped seed list: a live
// seed with foreign neighbors takes the foreign partition it touches the
// most (ties toward the smaller partition id) at level 0 and joins the
// worker's frontier. Each seed is owned by exactly one worker, so the
// Label/Level writes are race-free.
type levelZeroTask struct{ s *Scratch }

func (t *levelZeroTask) Do(w int) {
	s := t.s
	r := &s.res
	c, a := r.c, r.a
	ws := &s.ws[w]
	ws.frontier = ws.frontier[:0]
	counts := ws.counts
	sh := s.shards[w]
	for _, v := range s.seedBuf[sh.Lo:sh.Hi] {
		if !c.Live[v] {
			continue
		}
		pv := a.Part[v]
		touched := ws.touched[:0]
		for _, u := range c.Row(v) {
			pu := a.Part[u]
			if pu != pv {
				if counts[pu] == 0 {
					touched = append(touched, pu)
				}
				counts[pu]++
			}
		}
		ws.touched = touched[:0]
		if len(touched) == 0 {
			continue
		}
		r.Label[v] = bestLabel(counts, touched)
		r.Level[v] = 0
		ws.frontier = append(ws.frontier, v)
	}
}

// levelTask expands one shard of the current frontier.
type levelTask struct {
	s        *Scratch
	frontier []graph.Vertex
	level    int32
}

func (t *levelTask) Do(w int) {
	s := t.s
	ws := &s.ws[w]
	ws.cands = ws.cands[:0]
	r := &s.res
	part := r.a.Part
	sh := s.shards[w]
	for _, v := range t.frontier[sh.Lo:sh.Hi] {
		pv := part[v]
		for _, u := range r.c.Row(v) {
			if part[u] != pv || r.Label[u] >= 0 || !s.stamps.Claim(u) {
				continue
			}
			if lab := s.labelFor(ws, u, t.level); lab >= 0 {
				ws.cands = append(ws.cands, candLab{v: u, lab: lab})
			}
		}
	}
}

// labelFor computes the level-(level+1) label of claimed candidate u:
// the label most common among its same-partition level-`level`
// neighbors, ties toward the smaller partition id. It returns -1 when u
// has no support at that level, which cannot happen for a genuinely
// discovered candidate.
func (s *Scratch) labelFor(ws *layerWorker, u graph.Vertex, level int32) int32 {
	r := &s.res
	part := r.a.Part
	pu := part[u]
	counts := ws.counts
	touched := ws.touched[:0]
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
	ws.touched = touched[:0]
	if len(touched) == 0 {
		return -1
	}
	return bestLabel(counts, touched)
}

// parLevelMin is the seed/frontier size below which level work runs as
// one shard. It depends only on input size, so the worker count never
// changes which regions fork for a given input — and every shard count
// produces the same Result anyway.
const parLevelMin = 48

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
