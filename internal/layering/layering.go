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
// There is one kernel, Scratch.LayerSeeded: it runs over a caller-owned
// CSR snapshot, examines only a seed list (any superset of the boundary)
// for level-0 membership, and reuses every buffer across calls so
// steady-state layering allocates nothing. Layer is the one-shot wrapper
// that snapshots the graph and seeds with every live vertex.
//
// # Sharding and determinism
//
// Figure 3 is level-synchronous, so the kernel is sharded: vertex work is
// split into contiguous shards (arc-balanced over the CSR for the
// attachment scan, count-balanced for seed, frontier and sort lists),
// every worker owns a private arena (layerWorker) and the join merges
// per-worker output in shard order. The worker count is a parameter of
// that one path — par.Workers gates each region on its size, and one
// shard runs inline on the calling goroutine. Determinism is structural,
// not scheduled: labels at level ℓ+1 depend only on the completed level-ℓ
// labeling, pool layout is a total order over (level, attachment, id),
// and the only shared mutable state inside a region — the candidate claim
// stamps — decides membership (deterministic) rather than values. The
// produced Result is therefore bit-identical for every worker count and
// every seed order, a property the engine fuzzes
// (FuzzParallelEquivalence) and the tests check against a naive
// Figure-3 reference.
package layering

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// Result is the full layering of a partitioned graph.
type Result struct {
	P int
	// Label[v] is the closest foreign partition of v, or −1 when v is dead
	// or cannot reach its partition's boundary.
	Label []int32
	// Level[v] is v's BFS distance from the boundary with Label[v]
	// (0 = on the boundary), or −1 when Label[v] is −1.
	Level []int32
	// Delta[i][j] is δ(i,j): how many vertices of partition i are labeled
	// with partition j.
	Delta [][]int
	// pools[i][j] lists partition i's vertices labeled j in increasing
	// level order (boundary first), the order the balance mover consumes.
	pools [][][]graph.Vertex
}

// Pool returns partition i's vertices labeled j, boundary-first. The
// returned slice is owned by the Result and must not be modified.
func (r *Result) Pool(i, j int32) []graph.Vertex { return r.pools[i][j] }

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
// The Result returned by LayerSeeded is owned by the Scratch and is
// invalidated by the next call.
//
// Procs is the worker count the level-0 scan, each BFS level expansion,
// the attachment scan and the per-level pool sorts shard over (<= 1: one
// shard, run inline). Group, when non-nil, is the shared fork-join
// executor to run regions on (the engine passes its own so per-worker
// busy times roll up across kernels); nil uses a private one.
type Scratch struct {
	Procs int
	Group *par.Group

	res      Result
	byLevel  [][]graph.Vertex
	att      []int32
	ownGroup par.Group
	ws       []layerWorker
	stamps   par.Stamps
	seedBuf  []graph.Vertex
	frontier []graph.Vertex
	nextBuf  []graph.Vertex
	mergeBuf []graph.Vertex
	runEnds  []int
	shards   []par.Range
	lz       levelZeroTask
	lv       levelTask
	at       attTask
	srt      sortTask
}

// candLab is one claimed BFS candidate and its computed label.
type candLab struct {
	v   graph.Vertex
	lab int32
}

// layerWorker is one worker's private arena: label-count scratch,
// frontier/candidate output buffers and a sorter for shard sorts. All
// grow to the largest call seen and are then reused.
type layerWorker struct {
	counts   []int
	touched  []int32
	frontier []graph.Vertex
	cands    []candLab
	sorter   poolSorter
}

// poolSorter orders one level's vertices by attachment (descending) then
// id — a total order, so the pool layout is independent of discovery
// order. It is a reused sort.Interface so the sort costs no per-call
// closure or swapper allocation.
type poolSorter struct {
	vs  []graph.Vertex
	att []int32
}

func (s *poolSorter) Len() int { return len(s.vs) }
func (s *poolSorter) Less(i, j int) bool {
	if s.att[s.vs[i]] != s.att[s.vs[j]] {
		return s.att[s.vs[i]] > s.att[s.vs[j]]
	}
	return s.vs[i] < s.vs[j]
}
func (s *poolSorter) Swap(i, j int) { s.vs[i], s.vs[j] = s.vs[j], s.vs[i] }

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

// Layer runs the layering algorithm over a fresh snapshot of g, seeded
// with every live vertex. Every live vertex must be assigned.
func Layer(g *graph.Graph, a *partition.Assignment) (*Result, error) {
	var s Scratch
	return s.LayerSeeded(context.Background(), g.ToCSR(), a, g.Vertices())
}

// grow readies the scratch for an order-n, P-partition run.
func (s *Scratch) grow(n, p int) *Result {
	r := &s.res
	r.P = p
	r.Label = growInt32(r.Label, n)
	r.Level = growInt32(r.Level, n)
	for i := range r.Label[:n] {
		r.Label[i] = -1
		r.Level[i] = -1
	}
	if cap(r.Delta) < p {
		r.Delta = make([][]int, p)
	}
	r.Delta = r.Delta[:p]
	if cap(r.pools) < p {
		r.pools = make([][][]graph.Vertex, p)
	}
	r.pools = r.pools[:p]
	for i := 0; i < p; i++ {
		if cap(r.Delta[i]) < p {
			r.Delta[i] = make([]int, p)
		}
		r.Delta[i] = r.Delta[i][:p]
		for j := range r.Delta[i] {
			r.Delta[i][j] = 0
		}
		if cap(r.pools[i]) < p {
			r.pools[i] = make([][]graph.Vertex, p)
		}
		r.pools[i] = r.pools[i][:p]
		for j := range r.pools[i] {
			r.pools[i][j] = r.pools[i][j][:0]
		}
	}
	s.att = growInt32(s.att, n)
	s.stamps.Grow(n)
	return r
}

func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
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

// clearTasks drops the snapshot/assignment/seed pointers the reusable
// task structs captured for the last call's regions, so a long-lived
// scratch never pins a caller's dropped Assignment or CSR in memory.
func (s *Scratch) clearTasks() {
	s.lz = levelZeroTask{}
	s.lv = levelTask{}
	s.at = attTask{}
	s.srt = sortTask{}
}

// LayerSeeded runs the layering kernel over a CSR snapshot, which must
// reflect the graph the assignment covers. Only the seed vertices are
// examined for level-0 membership, so the level-0 pass costs
// O(Σ deg(seed)) instead of a full scan of every arc: seeds must contain
// every live vertex with at least one foreign neighbor (extra or
// duplicate vertices are harmless), and the result then depends on the
// graph and the assignment alone. The context is polled once per BFS
// level (the natural yield point of the level-synchronous traversal); a
// done context aborts with an error matching cancel.ErrCanceled and
// leaves the Scratch reusable.
func (s *Scratch) LayerSeeded(ctx context.Context, c *graph.CSR, a *partition.Assignment, seeds []graph.Vertex) (*Result, error) {
	if err := a.ValidateCSR(c); err != nil {
		return nil, fmt.Errorf("layering: %w", err)
	}
	n := c.Order()
	r := s.grow(n, a.P)
	defer s.clearTasks()

	// Level 0. The seed list is deduped first (a sharded pass must own
	// each vertex exactly once), then sharded by count. Workers classify
	// boundary vertices into private frontier buffers, merged in shard
	// order.
	s.stamps.Next()
	buf := s.seedBuf[:0]
	for _, v := range seeds {
		if s.stamps.TryMark(v) {
			buf = append(buf, v)
		}
	}
	s.seedBuf = buf
	s.shards = par.Split(s.shards[:0], len(buf), par.Workers(s.Procs, len(buf), parLevelMin))
	s.lz = levelZeroTask{s: s, c: c, a: a}
	s.fork(&s.lz)
	frontier := s.frontier[:0]
	for w := range s.shards {
		frontier = append(frontier, s.ws[w].frontier...)
	}

	// Interior levels: workers shard the frontier, claim undiscovered
	// same-partition neighbors through the atomic stamp, and compute
	// each claimed vertex's label immediately — the label inputs are
	// the completed level-ℓ labeling, which nothing writes during the
	// region. The join then applies the labels and concatenates the
	// next frontier in worker order. Which worker wins a claim decides
	// only the frontier's order, and no Result field depends on that.
	s.stamps.Next() // fresh generation: seed-dedup stamps must not mask claims
	next := s.nextBuf[:0]
	level := int32(0)
	for len(frontier) > 0 {
		if err := cancel.Check(ctx, "layering BFS"); err != nil {
			// Hand the grown buffers back before aborting so the
			// Scratch stays reusable after a canceled run.
			s.frontier = frontier[:0]
			s.nextBuf = next[:0]
			return nil, err
		}
		// A deep narrow layering must not pay a fork-join per ring:
		// small frontiers are one shard.
		s.shards = par.Split(s.shards[:0], len(frontier), par.Workers(s.Procs, len(frontier), parLevelMin))
		s.lv = levelTask{s: s, c: c, a: a, frontier: frontier, level: level}
		s.fork(&s.lv)
		next = next[:0]
		for w := range s.shards {
			for _, cl := range s.ws[w].cands {
				r.Label[cl.v] = cl.lab
				r.Level[cl.v] = level + 1
				next = append(next, cl.v)
			}
		}
		frontier, next = next, frontier
		level++
	}
	s.frontier = frontier[:0]
	s.nextBuf = next[:0]

	// Edges from v into its label partition, for the pool ordering:
	// sharded by arc count.
	s.shards = c.Shards(s.shards[:0], par.Workers(s.Procs, n, parOrderMin))
	s.at = attTask{s: s, c: c, a: a}
	s.fork(&s.at)

	s.buildPools(c, a)
	return r, nil
}

// levelZeroTask classifies one shard of the deduped seed list: a live
// seed with foreign neighbors takes the foreign partition it touches the
// most (ties toward the smaller partition id) at level 0 and joins the
// worker's frontier. Each seed is owned by exactly one worker, so the
// Label/Level writes are race-free.
type levelZeroTask struct {
	s *Scratch
	c *graph.CSR
	a *partition.Assignment
}

func (t *levelZeroTask) Do(w int) {
	s, c, a := t.s, t.c, t.a
	r := &s.res
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
	c        *graph.CSR
	a        *partition.Assignment
	frontier []graph.Vertex
	level    int32
}

func (t *levelTask) Do(w int) {
	s := t.s
	ws := &s.ws[w]
	ws.cands = ws.cands[:0]
	r := &s.res
	sh := s.shards[w]
	for _, v := range t.frontier[sh.Lo:sh.Hi] {
		pv := t.a.Part[v]
		for _, u := range t.c.Row(v) {
			if t.a.Part[u] != pv || r.Label[u] >= 0 || !s.stamps.Claim(u) {
				continue
			}
			if lab := s.labelFor(ws, t.c, t.a, u, t.level); lab >= 0 {
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
func (s *Scratch) labelFor(ws *layerWorker, c *graph.CSR, a *partition.Assignment, u graph.Vertex, level int32) int32 {
	r := &s.res
	pu := a.Part[u]
	counts := ws.counts
	touched := ws.touched[:0]
	for _, nb := range c.Row(u) {
		if a.Part[nb] != pu {
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

// attTask fills one vertex-range shard of the attachment array (edges
// from v into its label partition). Reads the completed labeling only;
// writes att[v] within the worker's own range.
type attTask struct {
	s *Scratch
	c *graph.CSR
	a *partition.Assignment
}

func (t *attTask) Do(w int) {
	s := t.s
	r := &s.res
	sh := s.shards[w]
	for v := sh.Lo; v < sh.Hi; v++ {
		lab := r.Label[v]
		if lab < 0 {
			continue
		}
		var cnt int32
		for _, u := range t.c.Row(graph.Vertex(v)) {
			if t.a.Part[u] == lab {
				cnt++
			}
		}
		s.att[v] = cnt
	}
}

// The fork thresholds below depend only on input size, so the worker
// count never changes which regions fork for a given input — and every
// shard count produces the same Result anyway.

// parSortMin is the level size below which a shard-sort is not worth
// the fork-join.
const parSortMin = 256

// parLevelMin is the seed/frontier size below which level work runs as
// one shard.
const parLevelMin = 48

// parOrderMin is the snapshot order below which the attachment scan
// runs as one shard — mirroring the engine's parBoundaryMin so a small
// graph never pays fork-join overhead on any region at the default
// parallelism.
const parOrderMin = 256

// buildPools fills Delta and the per-pair pools from the completed
// labeling, in (level, attachment, vertex-id) order: vertices closer to
// the boundary move first, and within a level the vertices with the
// most edges into their destination partition move first — realizing a
// flow this way peels coherent boundary bands instead of scattering
// moves, which keeps the cut low across repeated repartitionings. The
// attachment array s.att must already be computed.
func (s *Scratch) buildPools(c *graph.CSR, a *partition.Assignment) {
	r := &s.res
	n := c.Order()
	maxLevel := int32(-1)
	for v := 0; v < n; v++ {
		if r.Level[v] > maxLevel {
			maxLevel = r.Level[v]
		}
	}
	if cap(s.byLevel) < int(maxLevel+1) {
		old := s.byLevel
		s.byLevel = make([][]graph.Vertex, maxLevel+1)
		copy(s.byLevel, old)
	}
	byLevel := s.byLevel[:maxLevel+1]
	for l := range byLevel {
		byLevel[l] = byLevel[l][:0]
	}
	for v := 0; v < n; v++ {
		if l := r.Level[v]; l >= 0 {
			byLevel[l] = append(byLevel[l], graph.Vertex(v))
		}
	}
	for l, vs := range byLevel {
		s.sortLevel(vs)
		for _, v := range vs {
			i, j := a.Part[v], r.Label[v]
			r.pools[i][j] = append(r.pools[i][j], v)
			r.Delta[i][j]++
		}
		byLevel[l] = vs[:0]
	}
}

// sortTask sorts one contiguous shard of a level in place.
type sortTask struct {
	s  *Scratch
	vs []graph.Vertex
}

func (t *sortTask) Do(w int) {
	sh := t.s.shards[w]
	ws := &t.s.ws[w]
	ws.sorter.vs, ws.sorter.att = t.vs[sh.Lo:sh.Hi], t.s.att
	sort.Sort(&ws.sorter)
	ws.sorter.vs, ws.sorter.att = nil, nil
}

// sortLevel sorts vs into pool order (attachment descending, id
// ascending) in place: concurrent shard-sorts followed by sequential
// pairwise merge passes — none when the level is one shard. The
// comparator is a total order over distinct ids, so the outcome is the
// unique sorted permutation however the level was sharded.
func (s *Scratch) sortLevel(vs []graph.Vertex) {
	s.shards = par.Split(s.shards[:0], len(vs), par.Workers(s.Procs, len(vs), parSortMin))
	s.srt = sortTask{s: s, vs: vs}
	s.fork(&s.srt)
	if len(s.shards) == 1 {
		return
	}

	ends := s.runEnds[:0]
	for _, sh := range s.shards {
		ends = append(ends, sh.Hi)
	}
	if cap(s.mergeBuf) < len(vs) {
		s.mergeBuf = make([]graph.Vertex, len(vs))
	}
	src, dst := vs, s.mergeBuf[:len(vs)]
	for len(ends) > 1 {
		lo, k := 0, 0
		for i := 0; i+1 < len(ends); i += 2 {
			s.mergeRuns(dst, src, lo, ends[i], ends[i+1])
			lo = ends[i+1]
			ends[k] = ends[i+1]
			k++
		}
		if len(ends)%2 == 1 {
			hi := ends[len(ends)-1]
			copy(dst[lo:hi], src[lo:hi])
			ends[k] = hi
			k++
		}
		ends = ends[:k]
		src, dst = dst, src
	}
	s.runEnds = ends[:0]
	if &src[0] != &vs[0] {
		copy(vs, src)
	}
}

// mergeRuns merges the sorted runs src[lo:mid] and src[mid:hi] into
// dst[lo:hi] under the pool order.
func (s *Scratch) mergeRuns(dst, src []graph.Vertex, lo, mid, hi int) {
	att := s.att
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		switch {
		case i >= mid:
			dst[k] = src[j]
			j++
		case j >= hi:
			dst[k] = src[i]
			i++
		case att[src[i]] > att[src[j]] || (att[src[i]] == att[src[j]] && src[i] < src[j]):
			dst[k] = src[i]
			i++
		default:
			dst[k] = src[j]
			j++
		}
	}
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
