package coarsen

// hierarchy.go is the V-cycle's coarse hierarchy: a stack of
// heavy-edge-matched coarse graphs the engine keeps alive across
// Repartition calls. The key property is that the hierarchy is
// *incremental*: a warm Update repairs it — only the groups whose
// members were touched are dissolved and re-matched — instead of
// recoarsening from scratch. It is also demand-driven: the engine
// consults it only on calls that arrive unbalanced, and an Update
// repairs everything since the last one — the journal back to the
// consumed epoch plus every group whose members' partitions diverged
// meanwhile (a window the bounded journal no longer covers is rebuilt).
// Level 0 learns its touched set from the base graph's edit journal
// (TouchedSince; user edits are the only mutations there). Above that
// the journal is NOT used: a repair wave on a big graph can dwarf the
// journal's bounded window, which would force rebuilds exactly on the
// large warm graphs the hierarchy exists for. Instead, since coarse
// graphs are mutated only by the hierarchy's own repair, repair at level
// l records the exact set of coarse vertices it touches (mirroring the
// journal's semantics: removed vertex + its former neighbors per
// dissolve, new vertex + its aggregated-edge endpoints per rematch) and
// Update hands that wave to level l+1's repair as its touched set —
// exact at any scale.
//
// Weights: a coarse vertex's weight is the number of *level-0* vertices
// it represents (every fine vertex counts 1, whatever its application
// weight), so weighted balance at any level speaks the engine's
// vertex-count balance language. Matching is restricted to
// same-partition pairs (the paper's §4 rule), so every level inherits a
// well-defined partition; groups whose members' partitions diverge —
// the fine polish moves individual vertices — are dissolved by the next
// Update's purity sweep.
//
// Determinism: the hierarchy runs on the calling goroutine, and every
// operation iterates in ascending vertex order or an explicitly sorted
// one. No map iteration reaches a graph mutation or a float
// accumulation, so a V-cycle is a pure function of the graph, its edit
// history and the assignments it is handed — at every engine worker
// count, since the engine's sharded kernels are themselves bit-identical
// across counts. TestHierarchyLocked pins its output.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// HierarchyOptions configures a Hierarchy.
type HierarchyOptions struct {
	// CoarsenTo stops coarsening once a level has at most this many live
	// vertices (0 = max(64, 16·P), clamped to at least 2·P).
	CoarsenTo int
	// MaxLevels caps the number of coarse levels (0 = 32).
	MaxLevels int
	// Seed drives the spectral solve of the coarsest graph when the
	// current partition is degenerate (some partition empty, e.g. the
	// first call after a flood-fill assignment). 0 keeps the spectral
	// package's fixed default.
	Seed int64
	// Procs is not used: the hierarchy runs on one goroutine. The field
	// stays for the one caller outside the repository's root module that
	// still sets it (benchmarks/harness, until ROADMAP item 1(a) may edit
	// it).
	Procs int
}

func (o HierarchyOptions) coarsenTo(p int) int {
	ct := o.CoarsenTo
	if ct <= 0 {
		ct = 16 * p
		if ct < 64 {
			ct = 64
		}
	}
	if ct < 2*p {
		ct = 2 * p
	}
	return ct
}

func (o HierarchyOptions) maxLevels() int {
	if o.MaxLevels <= 0 {
		return 32
	}
	return o.MaxLevels
}

// LevelStats reports what one Update/Uncoarsen pass did at one level.
// The slice returned by Hierarchy.Levels is an arena overwritten by the
// next Update; copy what must survive.
type LevelStats struct {
	// Vertices and Edges are the coarse graph's live sizes after Update.
	Vertices, Edges int
	// Dissolved counts groups dissolved during repair (touched members
	// plus purity violations); Matched counts groups formed (every
	// group on a rebuild). Rebuilt reports that the level was (re)built
	// from scratch instead of repaired in place.
	Dissolved, Matched int
	Rebuilt            bool
	// Projected counts fine vertices whose partition changed when the
	// coarse decision was projected down; Refined counts the greedy
	// refinement moves applied at the fine side of this level.
	Projected, Refined int
	// CoarsenTime and UncoarsenTime are the wall clocks of this level's
	// Update share and Uncoarsen share.
	CoarsenTime, UncoarsenTime time.Duration
}

// level holds one contraction step: the coarse graph (owned), the coarse
// assignment, and the fine→coarse maps over the parent graph's slots.
type level struct {
	gc       *graph.Graph          // coarse graph (hierarchy-owned)
	ca       *partition.Assignment // coarse assignment, parallel to gc slots
	match    []graph.Vertex        // fine partner (self = singleton), fine slots
	f2c      []graph.Vertex        // fine slot → coarse slot, −1 = untracked
	consumed uint64                // parent-graph epoch this matching reflects
}

// Hierarchy is a journal-repairable multilevel coarsening of one graph.
// It is bound to the graph at creation; Update (re)builds or repairs the
// level stack bottom-up, SolveCoarsest partitions the coarsest graph,
// and Uncoarsen projects the coarse decision back down with per-level
// greedy refinement. A Hierarchy is not safe for concurrent use and all
// returned slices are arenas reused by the next call.
type Hierarchy struct {
	g      *graph.Graph
	opt    HierarchyOptions
	p      int
	levels []*level
	lstats []LevelStats

	// recordWave is set while repair runs, making the group mutators
	// (dissolve, rematch, connectGroups) log every coarse vertex they
	// touch into waveCur — the next level's exact touched set.
	recordWave bool

	// Scratch arenas, grown to the largest level seen.
	touchBuf  []graph.Vertex
	wavePrev  []graph.Vertex
	waveCur   []graph.Vertex
	freeBuf   []graph.Vertex
	orderBuf  []graph.Vertex
	repsBuf   []graph.Vertex
	cvsBuf    []graph.Vertex
	changeBuf []graph.Vertex
	connBuf   []float64
	wBuf      []float64
	targBuf   []int
	heapBuf   []moveEntry

	seedMarks par.Stamps
	// connectGroups' dense accumulator: acc[cw] is the weight the current
	// group (accSeen's generation) sends to coarse slot cw; ids lists the
	// slots it hit, pairs and runs hold every group's sorted run.
	acc     []float64
	accSeen par.Stamps
	ids     []graph.Vertex
	pairs   []cwPair
	runs    []int32

	mt matcher // match.go
}

type cwPair struct {
	cw graph.Vertex
	w  float64
}

// stall: a contraction that keeps more than 19/20 of the fine vertices
// is not worth a level (and a repaired level that degrades past it is
// rebuilt).
const stallNum, stallDen = 19, 20

// NewHierarchy returns an empty hierarchy bound to g. The first Update
// builds the level stack.
func NewHierarchy(g *graph.Graph, opt HierarchyOptions) *Hierarchy {
	return &Hierarchy{g: g, opt: opt}
}

// Depth returns the number of coarse levels.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// Levels returns per-level statistics for the last Update/Uncoarsen
// pair. The slice is an arena overwritten by the next Update.
func (h *Hierarchy) Levels() []LevelStats { return h.lstats }

// Coarsest returns the coarsest graph and its assignment (nil, nil when
// the hierarchy is empty). Both are hierarchy-owned.
func (h *Hierarchy) Coarsest() (*graph.Graph, *partition.Assignment) {
	if len(h.levels) == 0 {
		return nil, nil
	}
	lv := h.levels[len(h.levels)-1]
	return lv.gc, lv.ca
}

// levelGraph returns the graph whose vertices are level l's fine side.
func (h *Hierarchy) levelGraph(l int) *graph.Graph {
	if l == 0 {
		return h.g
	}
	return h.levels[l-1].gc
}

// levelAssign returns the assignment of level l's fine side.
func (h *Hierarchy) levelAssign(l int, a *partition.Assignment) *partition.Assignment {
	if l == 0 {
		return a
	}
	return h.levels[l-1].ca
}

// levelWeight is the level-0 cardinality of a level-l fine vertex.
func (h *Hierarchy) levelWeight(l int, v graph.Vertex) float64 {
	if l == 0 {
		return 1
	}
	return h.levels[l-1].gc.VertexWeight(v)
}

// Update brings the hierarchy in sync with the graph and assignment:
// each level is incrementally repaired (only touched or impure groups
// dissolve and re-match) — level 0 from the base graph's edit journal,
// upper levels from the repair wave recorded one level below — and
// rebuilt from scratch where that fails; levels are added
// while the coarsest graph stays above the CoarsenTo threshold and
// dropped once it does not (or coarsening stalls). Every live vertex
// must be assigned (run phase 1 first). It returns true when every
// pre-existing level was repaired in place — the warm path the engine's
// Stats report as HierarchyRepaired; levels appended below the repaired
// stack (repairs grow level graphs, occasionally deepening the
// hierarchy) do not count against it.
func (h *Hierarchy) Update(ctx context.Context, a *partition.Assignment) (repaired bool, err error) {
	if a.P != h.p {
		h.levels = h.levels[:0] // partition-count change: start over
		h.p = a.P
	}
	ct := h.opt.coarsenTo(h.p)
	origDepth := len(h.levels)
	// anyRebuilt forces the cascade: a rebuilt level is a brand-new graph
	// object, so every deeper level's consumed epoch is meaningless.
	// rebuiltExisting feeds the repaired flag: appending levels below the
	// repaired stack (repairs grow level graphs, occasionally deepening
	// the hierarchy) is growth, not a recoarsen of existing state.
	anyRebuilt, rebuiltExisting := false, false
	h.lstats = h.lstats[:0]
	for l := 0; ; l++ {
		// The wave recorded while processing level l−1 — its coarse-graph
		// mutations, which are exactly this level's fine-side changes —
		// becomes this level's touched set; recorders refill waveCur for
		// level l+1. Level 0 ignores wavePrev and reads the base graph's
		// journal instead.
		h.wavePrev, h.waveCur = h.waveCur, h.wavePrev[:0]
		fg := h.levelGraph(l)
		if l >= h.opt.maxLevels() || fg.NumVertices() <= ct {
			h.levels = h.levels[:l]
			break
		}
		if err := cancel.Check(ctx, "coarsen"); err != nil {
			h.levels = h.levels[:l] // deeper levels are stale; drop them
			return false, err
		}
		fa := h.levelAssign(l, a)
		h.lstats = append(h.lstats, LevelStats{})
		st := &h.lstats[l]
		t0 := time.Now()
		ok := false
		if !anyRebuilt && l < len(h.levels) {
			ok = h.repair(l, h.levels[l], fg, fa, st, h.wavePrev, l > 0)
			if ok && stallDen*h.levels[l].gc.NumVertices() > stallNum*fg.NumVertices() {
				ok = false // repairs degraded the reduction ratio: rebuild
			}
		}
		if !ok {
			lv := h.build(l, fg, fa, st)
			anyRebuilt = true
			if l < origDepth {
				rebuiltExisting = true
			}
			if l < len(h.levels) {
				h.levels[l] = lv
			} else {
				h.levels = append(h.levels, lv)
			}
			if stallDen*lv.gc.NumVertices() > stallNum*fg.NumVertices() {
				// Coarsening stalls here: this level buys <5% reduction,
				// so it (and anything deeper) is not worth keeping.
				h.levels = h.levels[:l]
				h.lstats = h.lstats[:l]
				break
			}
		}
		st.Vertices = h.levels[l].gc.NumVertices()
		st.Edges = h.levels[l].gc.NumEdges()
		st.CoarsenTime = time.Since(t0)
	}
	return origDepth > 0 && !rebuiltExisting && len(h.levels) > 0, nil
}

// repair incrementally repairs level lv (fine graph fg, fine assignment
// fa). The touched set comes from fg's edit journal at level 0
// (useWave false) and from the repair wave recorded one level below at
// every other level (useWave true) — see the package comment. It
// returns false when a full rebuild is needed: the level-0 journal does
// not reach back to the consumed epoch, or dead coarse slots piled up
// past half the order.
func (h *Hierarchy) repair(l int, lv *level, fg *graph.Graph, fa *partition.Assignment, st *LevelStats, wave []graph.Vertex, useWave bool) bool {
	touched := wave
	if !useWave {
		var exact bool
		touched, exact = fg.TouchedSince(lv.consumed, h.touchBuf[:0])
		h.touchBuf = touched[:0]
		if !exact {
			return false
		}
	}
	gc := lv.gc
	if ord := gc.Order(); ord > 256 && ord > 2*gc.NumVertices() {
		return false // dead-slot bloat: take the compacting rebuild
	}
	// Grow the per-fine-slot maps for vertices added since last time.
	for len(lv.f2c) < fg.Order() {
		lv.match = append(lv.match, graph.Vertex(len(lv.f2c)))
		lv.f2c = append(lv.f2c, -1)
	}
	h.recordWave = true
	defer func() { h.recordWave = false }()
	// 1. Structural dissolution: a touched vertex invalidates its
	// group — membership, cardinality weight or aggregated adjacency may
	// all be stale.
	dissolved := 0
	for _, v := range touched {
		dissolved += h.dissolve(lv, v)
	}
	// 2. Purity: dissolve pairs whose members' partitions diverged since
	// the last update (the fine polish moves vertices one by one), in
	// ascending slot order; a pair's second member is unmapped by then.
	n := fg.Order()
	for v := 0; v < n; v++ {
		vv := graph.Vertex(v)
		if !fg.Alive(vv) || lv.f2c[v] < 0 {
			continue
		}
		if u := lv.match[v]; u != vv && fa.Part[u] != fa.Part[v] {
			dissolved += h.dissolve(lv, vv)
		}
	}
	// 3. Collect the freed vertices and project the fine assignment up
	// through the surviving (pure) groups.
	free := h.freeBuf[:0]
	for v := 0; v < n; v++ {
		vv := graph.Vertex(v)
		if !fg.Alive(vv) {
			continue
		}
		if cv := lv.f2c[v]; cv >= 0 {
			lv.ca.Part[cv] = fa.Part[v]
		} else {
			free = append(free, vv)
		}
	}
	// 4. Re-match the freed vertices among themselves (same-partition
	// HEM) and wire the new groups into the coarse graph; the recorders
	// log the insertions into waveCur, which is exactly the touched set
	// level l+1's repair consumes.
	matched := h.rematch(l, lv, fg, fa, free)
	h.freeBuf = free[:0]
	st.Dissolved = dissolved
	st.Matched = matched
	lv.consumed = fg.Epoch()
	return true
}

// dissolve removes v's group from the coarse graph and unmaps its
// members; it reports 1 if a group was actually dissolved.
func (h *Hierarchy) dissolve(lv *level, v graph.Vertex) int {
	if int(v) >= len(lv.f2c) {
		return 0
	}
	cv := lv.f2c[v]
	if cv < 0 {
		return 0
	}
	if lv.gc.Alive(cv) {
		if h.recordWave {
			// Mirror the journal: a removal touches the removed vertex
			// and every former neighbor (their aggregated adjacency
			// changes) — captured before the removal erases it.
			h.waveCur = append(h.waveCur, cv)
			h.waveCur = append(h.waveCur, lv.gc.Neighbors(cv)...)
		}
		_ = lv.gc.RemoveVertex(cv)
		// Clear the dead slot's assignment: downstream kernels (the
		// coarsest-level layering, partition.Validate) reject dead
		// vertices that still carry a partition.
		lv.ca.Part[cv] = partition.Unassigned
	}
	u := lv.match[v]
	lv.f2c[v] = -1
	lv.match[v] = v
	if u != v {
		lv.f2c[u] = -1
		lv.match[u] = u
	}
	return 1
}

// rematch heavy-edge-matches the freed vertices among themselves with
// the deterministic mutual-proposal matcher (match.go) and creates
// the new coarse vertices and their aggregated adjacency, one group per
// matched pair or leftover singleton, representatives in ascending slot
// order. It returns the number of groups formed.
func (h *Hierarchy) rematch(l int, lv *level, fg *graph.Graph, fa *partition.Assignment, free []graph.Vertex) int {
	if len(free) == 0 {
		return 0
	}
	h.mt.run(fg, fa.Part, free)
	reps := h.repsBuf[:0]
	cvs := h.cvsBuf[:0]
	for _, v := range free {
		if lv.f2c[v] >= 0 {
			continue // grouped as an earlier vertex's partner
		}
		u := h.mt.mate[v]
		w := h.levelWeight(l, v)
		if u != v {
			w += h.levelWeight(l, u)
		}
		cv := lv.gc.AddVertex(w)
		if h.recordWave {
			h.waveCur = append(h.waveCur, cv)
		}
		lv.ca.Grow(lv.gc.Order())
		lv.ca.Part[cv] = fa.Part[v]
		lv.f2c[v] = cv
		if u != v {
			lv.f2c[u] = cv
			lv.match[v], lv.match[u] = u, v
		} else {
			lv.match[v] = v
		}
		reps = append(reps, v)
		cvs = append(cvs, cv)
	}
	h.connectGroups(fg, lv, reps, cvs)
	h.repsBuf, h.cvsBuf = reps[:0], cvs[:0]
	return len(cvs)
}

// build (re)coarsens one whole level from scratch, running the same
// mutual-proposal matcher as the repair path over all live vertices.
func (h *Hierarchy) build(l int, fg *graph.Graph, fa *partition.Assignment, st *LevelStats) *level {
	n := fg.Order()
	free := h.freeBuf[:0]
	for v := 0; v < n; v++ {
		if fg.Alive(graph.Vertex(v)) {
			free = append(free, graph.Vertex(v))
		}
	}
	h.mt.run(fg, fa.Part, free)
	match := make([]graph.Vertex, n)
	for i := range match {
		match[i] = graph.Vertex(i)
	}
	f2c := make([]graph.Vertex, n)
	for i := range f2c {
		f2c[i] = -1
	}
	gc := graph.New(fg.NumVertices())
	ca := &partition.Assignment{P: h.p}
	lv := &level{gc: gc, ca: ca, match: match, f2c: f2c}
	reps := h.repsBuf[:0]
	cvs := h.cvsBuf[:0]
	for _, vv := range free {
		v := int(vv)
		if f2c[v] >= 0 {
			continue // grouped as an earlier vertex's partner
		}
		u := h.mt.mate[v]
		w := h.levelWeight(l, vv)
		if u != vv {
			w += h.levelWeight(l, u)
		}
		cv := gc.AddVertex(w)
		f2c[v] = cv
		if u != vv {
			f2c[u] = cv
			match[v], match[u] = u, vv
		}
		ca.Part = append(ca.Part, fa.Part[v])
		reps = append(reps, vv)
		cvs = append(cvs, cv)
	}
	h.connectGroups(fg, lv, reps, cvs)
	h.freeBuf = free[:0]
	h.repsBuf, h.cvsBuf = reps[:0], cvs[:0]
	lv.consumed = fg.Epoch()
	st.Rebuilt = true
	st.Matched = len(ca.Part)
	return lv
}

// connectGroups inserts the aggregated coarse adjacency of newly created
// coarse vertices cvs (reps[i] is the smallest fine member of cvs[i]).
// It runs in two passes. The first aggregates each group on a dense
// accumulator: each arc of either member adds its weight at its coarse
// endpoint's slot (in adjacency order, a pure function of the graph),
// and the touched slots, sorted, become the group's run of (endpoint,
// weight) pairs — never via map iteration. The run is the new vertex's
// whole adjacency, reserved there, where it is sized. The second pass
// inserts the runs in ascending group order. Nothing is probed: a new
// vertex owns no edge yet and its run names each neighbor once, so an
// arc to an old vertex goes in where it is met and one between two new
// groups — met from both sides — once, from the lower id (new ids are
// the contiguous tail from cvs[0] on: AddVertex only appends). A new
// vertex ends with exactly its run's arcs, and the first pass has
// already reserved that capacity.
func (h *Hierarchy) connectGroups(fg *graph.Graph, lv *level, reps, cvs []graph.Vertex) {
	if len(cvs) == 0 {
		return
	}
	if n := lv.gc.Order(); len(h.acc) < n {
		n += n / 8 // headroom: every repair appends a few coarse slots
		h.acc = make([]float64, n)
		h.accSeen.Grow(n)
	}
	pairs, runs, ids := h.pairs[:0], h.runs[:0], h.ids
	for i, v := range reps {
		cv := cvs[i]
		h.accSeen.Next()
		ids = ids[:0]
		members := [2]graph.Vertex{v, lv.match[v]}
		cnt := 1
		if members[1] != v {
			cnt = 2
		}
		for _, mb := range members[:cnt] {
			ews := fg.EdgeWeights(mb)
			for j, nb := range fg.Neighbors(mb) {
				cw := lv.f2c[nb]
				if cw == cv || cw < 0 {
					continue
				}
				if h.accSeen.TryMark(cw) {
					h.acc[cw] = ews[j]
					ids = append(ids, cw)
				} else {
					h.acc[cw] += ews[j]
				}
			}
		}
		slices.Sort(ids)
		lv.gc.ReserveAdjacency(cv, len(ids))
		for _, cw := range ids {
			pairs = append(pairs, cwPair{cw, h.acc[cw]})
		}
		runs = append(runs, int32(len(pairs)))
	}
	lo := int32(0)
	for k, hi := range runs {
		cv := cvs[k]
		for _, pr := range pairs[lo:hi] {
			if pr.cw < cvs[0] || pr.cw > cv {
				lv.gc.AddEdgeUnchecked(cv, pr.cw, pr.w)
			}
			if h.recordWave {
				// An edge insertion touches both endpoints; cv itself
				// was already recorded at AddVertex.
				h.waveCur = append(h.waveCur, pr.cw)
			}
		}
		lo = hi
	}
	h.pairs, h.runs, h.ids = pairs[:0], runs[:0], ids[:0]
}

// fineTargets returns the per-partition vertex-count targets in level-0
// units (arena-backed).
func (h *Hierarchy) fineTargets() []int {
	if cap(h.targBuf) < h.p {
		h.targBuf = make([]int, h.p)
	}
	h.targBuf = partition.TargetsInto(h.targBuf[:h.p], h.g.NumVertices(), h.p)
	return h.targBuf
}

// SolveCoarsest partitions the coarsest graph. On the warm path the
// current coarse partition is rebalanced by the weighted balance LP
// (CoarseBalance, ε-escalated). When the partition is degenerate — some
// partition holds no weight, e.g. the first call ever, where phase 1
// flood-filled everything into one partition — the coarsest graph is
// instead partitioned from scratch by weight-aware recursive spectral
// bisection with the configured seed; a done ctx stops it with its
// cancellation error, any other spectral failure falls back to greedy
// weight packing. It returns the fine-vertex weight moved and whether
// the spectral path ran.
func (h *Hierarchy) SolveCoarsest(ctx context.Context, solver lp.Solver) (moved int, spectralInit bool, err error) {
	if len(h.levels) == 0 {
		return 0, false, nil
	}
	lv := h.levels[len(h.levels)-1]
	gc, ca := lv.gc, lv.ca
	weights := ca.Weights(gc)
	degenerate := len(weights) < h.p
	for q := 0; !degenerate && q < h.p; q++ {
		if weights[q] <= 0 {
			degenerate = true
		}
	}
	if !degenerate {
		moved, err = CoarseBalance(ctx, gc, ca, h.fineTargets(), solver)
		return moved, false, err
	}
	part, rerr := spectral.RSBContext(ctx, gc, h.p, spectral.Options{Seed: h.opt.Seed})
	if errors.Is(rerr, cancel.ErrCanceled) {
		return 0, false, rerr
	}
	if rerr != nil {
		// Spectral failure (e.g. adversarially disconnected coarse
		// graphs): fall back to a deterministic greedy weight packing.
		return h.assignByWeight(gc, ca), true, nil
	}
	for v := 0; v < gc.Order(); v++ {
		if gc.Alive(graph.Vertex(v)) && part[v] != ca.Part[v] {
			moved += int(math.Round(gc.VertexWeight(graph.Vertex(v))))
			ca.Part[v] = part[v]
		}
	}
	return moved, true, nil
}

// assignByWeight deterministically packs coarse vertices onto the
// lightest partition, heaviest first — the last-resort coarsest
// initializer when the spectral solve fails.
func (h *Hierarchy) assignByWeight(gc *graph.Graph, ca *partition.Assignment) (moved int) {
	order := gc.Vertices()
	sort.Slice(order, func(i, j int) bool {
		wi, wj := gc.VertexWeight(order[i]), gc.VertexWeight(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	if cap(h.wBuf) < h.p {
		h.wBuf = make([]float64, h.p)
	}
	load := h.wBuf[:h.p]
	for q := range load {
		load[q] = 0
	}
	for _, v := range order {
		best := 0
		for q := 1; q < h.p; q++ {
			if load[q] < load[best] {
				best = q
			}
		}
		if ca.Part[v] != int32(best) {
			ca.Part[v] = int32(best)
			moved += int(math.Round(gc.VertexWeight(v)))
		}
		load[best] += gc.VertexWeight(v)
	}
	return moved
}

// Uncoarsen projects the coarse partition back down the hierarchy,
// running boundary-seeded greedy refinement at every level (including
// level 0, writing into a). Refinement only applies strictly
// cut-reducing moves that keep every partition's level-0 cardinality
// within a capped cluster-granularity slack of its target (or improve
// its deviation), so the fine polish that follows faces a small,
// bounded residual imbalance. It returns the total refinement moves
// applied.
func (h *Hierarchy) Uncoarsen(ctx context.Context, a *partition.Assignment) (int, error) {
	total := 0
	for l := len(h.levels) - 1; l >= 0; l-- {
		if err := cancel.Check(ctx, "uncoarsen"); err != nil {
			return total, err
		}
		t0 := time.Now()
		fg := h.levelGraph(l)
		fa := h.levelAssign(l, a)
		lv := h.levels[l]
		// Downward projection, collecting the changed vertices in
		// ascending slot order.
		changed := h.changeBuf[:0]
		for v := 0; v < fg.Order(); v++ {
			vv := graph.Vertex(v)
			if !fg.Alive(vv) || lv.f2c[v] < 0 {
				continue
			}
			if np := lv.ca.Part[lv.f2c[v]]; fa.Part[v] != np {
				fa.Part[v] = np
				changed = append(changed, vv)
			}
		}
		moved := h.refineLevel(l, fg, fa, changed)
		h.changeBuf = changed[:0]
		total += moved
		if l < len(h.lstats) {
			h.lstats[l].Projected = len(changed)
			h.lstats[l].Refined = moved
			h.lstats[l].UncoarsenTime = time.Since(t0)
		}
	}
	return total, nil
}

// moveEntry is one candidate refinement move on the lazy heap.
type moveEntry struct {
	gain float64
	v    graph.Vertex
	to   int32
}

// entryLess is the heap's strict total order: gain descending, then
// vertex id, then target partition.
func entryLess(a, b moveEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.v != b.v {
		return a.v < b.v
	}
	return a.to < b.to
}

func (h *Hierarchy) heapPush(e moveEntry) {
	h.heapBuf = append(h.heapBuf, e)
	i := len(h.heapBuf) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(h.heapBuf[i], h.heapBuf[parent]) {
			break
		}
		h.heapBuf[i], h.heapBuf[parent] = h.heapBuf[parent], h.heapBuf[i]
		i = parent
	}
}

func (h *Hierarchy) heapPop() moveEntry {
	top := h.heapBuf[0]
	last := len(h.heapBuf) - 1
	h.heapBuf[0] = h.heapBuf[last]
	h.heapBuf = h.heapBuf[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && entryLess(h.heapBuf[c+1], h.heapBuf[c]) {
			c++
		}
		if !entryLess(h.heapBuf[c], h.heapBuf[i]) {
			break
		}
		h.heapBuf[i], h.heapBuf[c] = h.heapBuf[c], h.heapBuf[i]
		i = c
	}
	return top
}

// refineLevel runs the per-level greedy refinement: a lazy max-gain heap
// seeded from the projection-changed vertices and their neighbors,
// applying strictly positive-gain moves under a weight guard (every
// partition stays within one max-cluster weight of its level-0 target).
// The heap's order is total, so the move sequence is a pure function of
// the level's state. Each applied move strictly decreases the cut, so
// the loop terminates (a generous budget guards float pathologies).
func (h *Hierarchy) refineLevel(l int, fg *graph.Graph, fa *partition.Assignment, changed []graph.Vertex) int {
	if len(changed) == 0 {
		return 0
	}
	p := h.p
	weights, total, slack := h.levelWeights(l, fg, fa)
	// Slack grants cluster-granularity freedom, but capped: at deep
	// levels a single cluster can hold a large share of the graph, and a
	// guard of ±maxClusterWeight would let one gain-positive mega-cluster
	// move flip the balance — imbalance the fine LP then repays in
	// cut-destroying moves. Beyond the cap a move is admitted only when
	// it does not worsen its endpoints' deviation (see the loop guard).
	if cap := 1 + total/(8*float64(p)); slack > cap {
		slack = cap
	}
	targets := h.fineTargets()
	if cap(h.connBuf) < p {
		h.connBuf = make([]float64, p)
	}
	h.heapBuf = h.heapBuf[:0]
	// Seed from the changed vertices and their neighborhoods, in
	// ascending deduplicated order.
	seeds := h.collectSeeds(fg, changed)
	for _, v := range seeds {
		h.pushMoves(fg, fa, v)
	}
	h.orderBuf = seeds[:0]

	moved := 0
	budget := 2*fg.NumVertices() + 64
	for len(h.heapBuf) > 0 && moved < budget {
		e := h.heapPop()
		if !fg.Alive(e.v) {
			continue
		}
		from := fa.Part[e.v]
		if from < 0 || from == e.to {
			continue
		}
		// Recompute the gain: the stored one may be stale. Applying the
		// fresh gain keeps every applied move strictly cut-reducing.
		gain := h.gainOf(fg, fa, e.v, e.to)
		if gain <= 0 {
			continue
		}
		wv := h.levelWeight(l, e.v)
		devBefore := math.Abs(weights[from] - float64(targets[from]))
		if d := math.Abs(weights[e.to] - float64(targets[e.to])); d > devBefore {
			devBefore = d
		}
		devAfter := math.Abs(weights[from] - wv - float64(targets[from]))
		if d := math.Abs(weights[e.to] + wv - float64(targets[e.to])); d > devAfter {
			devAfter = d
		}
		if devAfter > slack && devAfter > devBefore {
			continue
		}
		fa.Part[e.v] = e.to
		weights[from] -= wv
		weights[e.to] += wv
		moved++
		h.pushMoves(fg, fa, e.v)
		for _, u := range fg.Neighbors(e.v) {
			h.pushMoves(fg, fa, u)
		}
	}
	h.heapBuf = h.heapBuf[:0]
	return moved
}

// levelWeights returns the per-partition level-0 cardinality weights
// (arena: h.wBuf), their total and the heaviest single cluster.
func (h *Hierarchy) levelWeights(l int, fg *graph.Graph, fa *partition.Assignment) (weights []float64, total, maxW float64) {
	if cap(h.wBuf) < h.p {
		h.wBuf = make([]float64, h.p)
	}
	weights = h.wBuf[:h.p]
	for q := range weights {
		weights[q] = 0
	}
	for v := 0; v < fg.Order(); v++ {
		vv := graph.Vertex(v)
		if !fg.Alive(vv) {
			continue
		}
		wt := h.levelWeight(l, vv)
		total += wt
		if q := fa.Part[v]; q >= 0 {
			weights[q] += wt
		}
		if wt > maxW {
			maxW = wt
		}
	}
	return weights, total, maxW
}

// collectSeeds returns the ascending, deduplicated refinement seed set:
// the changed vertices plus their neighborhoods (arena: h.orderBuf).
// Two strategies produce the identical list, chosen purely by input
// size: small changed sets gather and sort; large ones — the cold
// V-cycle projects a big share of the level — mark membership in a
// stamp set and collect with an ascending slot scan, which is O(order)
// and naturally sorted and deduplicated.
func (h *Hierarchy) collectSeeds(fg *graph.Graph, changed []graph.Vertex) []graph.Vertex {
	n := fg.Order()
	seeds := h.orderBuf[:0]
	if len(changed)*32 < n {
		seeds = append(seeds, changed...)
		for _, v := range changed {
			seeds = append(seeds, fg.Neighbors(v)...)
		}
		slices.Sort(seeds)
		return slices.Compact(seeds)
	}
	h.seedMarks.Grow(n)
	h.seedMarks.Next()
	for _, v := range changed {
		h.seedMarks.TryMark(v)
		for _, u := range fg.Neighbors(v) {
			h.seedMarks.TryMark(u)
		}
	}
	for v := 0; v < n; v++ {
		if h.seedMarks.Marked(int32(v)) {
			seeds = append(seeds, graph.Vertex(v))
		}
	}
	return seeds
}

// pushMoves pushes every strictly positive-gain move of v onto the heap.
func (h *Hierarchy) pushMoves(fg *graph.Graph, fa *partition.Assignment, v graph.Vertex) {
	if !fg.Alive(v) {
		return
	}
	own := fa.Part[v]
	if own < 0 {
		return
	}
	conn := h.connBuf[:h.p]
	for q := range conn {
		conn[q] = 0
	}
	ws := fg.EdgeWeights(v)
	for i, u := range fg.Neighbors(v) {
		if q := fa.Part[u]; q >= 0 {
			conn[q] += ws[i]
		}
	}
	base := conn[own]
	for q := 0; q < h.p; q++ {
		if int32(q) != own && conn[q] > base {
			h.heapPush(moveEntry{gain: conn[q] - base, v: v, to: int32(q)})
		}
	}
}

// gainOf recomputes the cut gain of moving v to partition `to`,
// accumulating in adjacency order (the same order pushMoves used, so
// values agree bitwise).
func (h *Hierarchy) gainOf(fg *graph.Graph, fa *partition.Assignment, v graph.Vertex, to int32) float64 {
	own := fa.Part[v]
	var connTo, connOwn float64
	ws := fg.EdgeWeights(v)
	for i, u := range fg.Neighbors(v) {
		switch fa.Part[u] {
		case to:
			connTo += ws[i]
		case own:
			connOwn += ws[i]
		}
	}
	return connTo - connOwn
}

// Check is the hierarchy's test oracle: it verifies every structural
// invariant against the bound graph and the given fine assignment —
// fine→coarse mapping validity, matching symmetry, partition purity,
// upward projection consistency, cardinality-weight conservation
// (Σ coarse weight per partition = live fine count per partition at
// every level) and exact aggregated coarse edge weights. O(levels·m);
// test/fuzz use only.
func (h *Hierarchy) Check(a *partition.Assignment) error {
	for l, lv := range h.levels {
		fg := h.levelGraph(l)
		fa := h.levelAssign(l, a)
		if len(lv.f2c) < fg.Order() {
			return fmt.Errorf("level %d: f2c covers %d of %d slots", l, len(lv.f2c), fg.Order())
		}
		members := make(map[graph.Vertex]float64)
		for v := 0; v < fg.Order(); v++ {
			vv := graph.Vertex(v)
			cv := lv.f2c[v]
			if !fg.Alive(vv) {
				if cv >= 0 {
					return fmt.Errorf("level %d: dead vertex %d still mapped to %d", l, v, cv)
				}
				continue
			}
			if cv < 0 || !lv.gc.Alive(cv) {
				return fmt.Errorf("level %d: live vertex %d mapped to bad coarse %d", l, v, cv)
			}
			u := lv.match[v]
			if lv.match[u] != vv || lv.f2c[u] != cv {
				return fmt.Errorf("level %d: matching broken at %d (partner %d)", l, v, u)
			}
			if fa.Part[u] != fa.Part[v] {
				return fmt.Errorf("level %d: impure group {%d,%d}: parts %d/%d", l, v, u, fa.Part[v], fa.Part[u])
			}
			if lv.ca.Part[cv] != fa.Part[v] {
				return fmt.Errorf("level %d: projection stale at coarse %d: %d != %d", l, cv, lv.ca.Part[cv], fa.Part[v])
			}
			members[cv] += h.levelWeight(l, vv)
		}
		for v := 0; v < lv.gc.Order(); v++ {
			cv := graph.Vertex(v)
			if !lv.gc.Alive(cv) {
				if lv.ca.Part[cv] != partition.Unassigned {
					return fmt.Errorf("level %d: dead coarse slot %d still assigned to %d", l, cv, lv.ca.Part[cv])
				}
				continue
			}
			w, ok := members[cv]
			if !ok {
				return fmt.Errorf("level %d: coarse vertex %d has no members", l, cv)
			}
			if math.Abs(w-lv.gc.VertexWeight(cv)) > 1e-9 {
				return fmt.Errorf("level %d: coarse %d weight %g != member cardinality %g", l, cv, lv.gc.VertexWeight(cv), w)
			}
		}
		// Aggregated edge weights: recompute from the fine graph.
		type ck struct{ a, b graph.Vertex }
		want := make(map[ck]float64)
		for v := 0; v < fg.Order(); v++ {
			vv := graph.Vertex(v)
			if !fg.Alive(vv) {
				continue
			}
			ws := fg.EdgeWeights(vv)
			for i, u := range fg.Neighbors(vv) {
				cv, cu := lv.f2c[v], lv.f2c[u]
				if cv == cu || vv > u {
					continue
				}
				k := ck{cv, cu}
				if cv > cu {
					k = ck{cu, cv}
				}
				want[k] += ws[i]
			}
		}
		got := 0
		for v := 0; v < lv.gc.Order(); v++ {
			cv := graph.Vertex(v)
			if !lv.gc.Alive(cv) {
				continue
			}
			ws := lv.gc.EdgeWeights(cv)
			for i, cu := range lv.gc.Neighbors(cv) {
				if cv > cu {
					continue
				}
				got++
				w, ok := want[ck{cv, cu}]
				if !ok {
					return fmt.Errorf("level %d: coarse edge {%d,%d} has no fine counterpart", l, cv, cu)
				}
				if math.Abs(w-ws[i]) > 1e-6*(1+math.Abs(w)) {
					return fmt.Errorf("level %d: coarse edge {%d,%d} weight %g != aggregate %g", l, cv, cu, ws[i], w)
				}
			}
		}
		if got != len(want) {
			return fmt.Errorf("level %d: %d coarse edges, aggregation wants %d", l, got, len(want))
		}
	}
	return nil
}
