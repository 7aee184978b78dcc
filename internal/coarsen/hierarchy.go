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
// Storage: each batch of new coarse vertices (a build's whole level, a
// repair's regrouped vertices) is one exact-size slab for
// graph.AppendRows, in the layout TestHierarchyLocked's digests pin: a
// new row lists new neighbours below, then old ones, then new ones above,
// each ascending; a new–new arc weighs the lower vertex's aggregate, an
// arc to an old vertex the new group's; old rows gain arcs in new-id order.
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
// history and the assignments it is handed. TestHierarchyLocked pins its
// output.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/spectral"
)

// HierarchyOptions configures a Hierarchy.
type HierarchyOptions struct {
	// CoarsenTo stops coarsening once a level has at most this many live
	// vertices (0 = max(64, 16·P), clamped to at least 2·P).
	CoarsenTo int
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

// maxLevels caps the number of coarse levels.
const maxLevels = 32

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
	a      *partition.Assignment // level 0's assignment, as Update last saw it
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
	repsBuf   []graph.Vertex
	vwBuf     []float64
	changeBuf []graph.Vertex
	connBuf   []float64
	wBuf      []float64
	targBuf   []int
	moves     refine.MoveHeap

	seedMarks par.Stamps
	// connectGroups' dense accumulator: acc[cw] is the weight the current
	// group (accSeen's generation) sends to coarse slot cw and ids lists
	// the slots it hit; offBuf and fillBuf index the batch's rows.
	acc     []float64
	accSeen par.Stamps
	ids     []graph.Vertex
	offBuf  []int
	fillBuf []int

	mt matcher // match.go
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
	h.a = a
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
		if l >= maxLevels || fg.NumVertices() <= ct {
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
// the greedy matcher (match.go: the suitor pass, then two-hop) and
// appends the new coarse vertices and their aggregated adjacency in one
// batch, one group per matched pair or leftover singleton,
// representatives in ascending slot order. It returns the number of
// groups formed.
func (h *Hierarchy) rematch(l int, lv *level, fg *graph.Graph, fa *partition.Assignment, free []graph.Vertex) int {
	if len(free) == 0 {
		return 0
	}
	h.mt.run(fg, fa.Part, free)
	base := graph.Vertex(lv.gc.Order())
	reps, vw := h.repsBuf[:0], h.vwBuf[:0]
	for _, v := range free {
		if lv.f2c[v] >= 0 {
			continue // grouped as an earlier vertex's partner
		}
		cv := base + graph.Vertex(len(reps))
		u := h.mt.mate[v]
		w := h.levelWeight(l, v)
		lv.f2c[v] = cv
		if u != v {
			w += h.levelWeight(l, u)
			lv.f2c[u] = cv
			lv.match[v], lv.match[u] = u, v
		} else {
			lv.match[v] = v
		}
		if h.recordWave {
			h.waveCur = append(h.waveCur, cv)
		}
		reps = append(reps, v)
		vw = append(vw, w)
	}
	lv.ca.Part = slices.Grow(lv.ca.Part, len(reps))
	for _, v := range reps {
		lv.ca.Part = append(lv.ca.Part, fa.Part[v])
	}
	h.connectGroups(fg, lv, reps, vw)
	h.repsBuf, h.vwBuf = reps[:0], vw[:0]
	return len(reps)
}

// build (re)coarsens one whole level from scratch: rematch over every
// live vertex of an empty level.
func (h *Hierarchy) build(l int, fg *graph.Graph, fa *partition.Assignment, st *LevelStats) *level {
	n := fg.Order()
	free := h.freeBuf[:0]
	for v := 0; v < n; v++ {
		if fg.Alive(graph.Vertex(v)) {
			free = append(free, graph.Vertex(v))
		}
	}
	match := make([]graph.Vertex, n)
	f2c := make([]graph.Vertex, n)
	for i := range match {
		match[i] = graph.Vertex(i)
		f2c[i] = -1
	}
	lv := &level{gc: &graph.Graph{}, ca: &partition.Assignment{P: h.p}, match: match, f2c: f2c}
	st.Matched = h.rematch(l, lv, fg, fa, free)
	h.freeBuf = free[:0]
	lv.consumed = fg.Epoch()
	st.Rebuilt = true
	return lv
}

// connectGroups appends the batch of new coarse vertices — group i is
// reps[i] (its smallest fine member) and its partner, weighs vw[i] and
// becomes vertex base+i, base the coarse order before the batch — with
// their aggregated adjacency, in one graph.AppendRows call. Pass 1
// aggregates each group on a dense accumulator (each arc of either
// member adds its weight at its coarse endpoint's slot, in adjacency
// order; never via map iteration) and appends the touched slots, sorted,
// as the group's run to a transient buffer sized by the members' fine
// degrees. Pass 2 copies the runs once into an exact-size slab, in the
// layout the locked digests pin: new vertex cv's row lists its new
// neighbours below cv, then its old neighbours, then its new neighbours
// above cv, each ascending (a run sorts old, below, above: the first two
// blocks swap); an arc between two new vertices carries the lower
// vertex's aggregate (written into the higher row's below slots as the
// lower row is laid out) and an arc to an old vertex the new group's.
// While repair records, the wave gains every run entry in group and run
// order.
func (h *Hierarchy) connectGroups(fg *graph.Graph, lv *level, reps []graph.Vertex, vw []float64) {
	if len(reps) == 0 {
		return
	}
	base := graph.Vertex(lv.gc.Order())
	if n := int(base) + len(reps); len(h.acc) < n {
		n += n / 8 // headroom: every repair appends a few coarse slots
		h.acc = make([]float64, n)
		h.accSeen.Grow(n)
	}
	bound := 0 // a singleton counts its degree twice
	for _, v := range reps {
		bound += fg.Degree(v) + fg.Degree(lv.match[v])
	}
	runV := make([]graph.Vertex, 0, bound)
	runW := make([]float64, 0, bound)
	off := append(h.offBuf[:0], 0)
	ids := h.ids
	for i, v := range reps {
		cv := base + graph.Vertex(i)
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
		runV = append(runV, ids...)
		for _, cw := range ids {
			runW = append(runW, h.acc[cw])
		}
		off = append(off, len(runV))
	}
	h.ids = ids[:0]
	if h.recordWave {
		h.waveCur = append(h.waveCur, runV...)
	}
	adj := make([]graph.Vertex, len(runV))
	ew := make([]float64, len(runV))
	fill := append(h.fillBuf[:0], off[:len(reps)]...) // next new-below slot per row
	for i := range reps {
		cv := base + graph.Vertex(i)
		lo, hi := off[i], off[i+1]
		run, rw := runV[lo:hi], runW[lo:hi]
		o, _ := slices.BinarySearch(run, base) // old neighbours: run[:o]
		b, _ := slices.BinarySearch(run, cv)   // new-below: run[o:b]
		row, roww := adj[lo:hi], ew[lo:hi]
		copy(row, run[o:b])
		copy(row[b-o:], run[:o])
		copy(roww[b-o:], rw[:o])
		copy(row[b:], run[b:])
		copy(roww[b:], rw[b:])
		for j := b; j < len(run); j++ {
			k := run[j] - base
			ew[fill[k]] = rw[j]
			fill[k]++
		}
	}
	h.offBuf, h.fillBuf = off[:0], fill[:0]
	lv.gc.AppendRows(vw, off, adj, ew)
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

// SolveCoarsest partitions the coarsest graph after an Update — level 0,
// the bound graph under the assignment Update was handed, when there is
// no coarse level. On the warm path the coarse partition is rebalanced by
// the weighted balance LP (CoarseBalance, ε-escalated), or at level 0
// left to the caller's flat stages. A degenerate partition — some part
// holds no weight, e.g. after phase 1 flood-filled a first call into one
// part — is instead replaced by weight-aware recursive spectral
// bisection with the configured seed; a done ctx stops it with its
// cancellation error, and any other spectral failure leaves the coarsest
// assignment as it is (the engine's flat stages and spill balance any
// assignment). It returns the fine-vertex weight moved and
// whether spectral bisection partitioned the coarsest graph.
func (h *Hierarchy) SolveCoarsest(ctx context.Context, solver lp.Solver) (moved int, spectralInit bool, err error) {
	top := len(h.levels)
	gc, ca := h.levelGraph(top), h.levelAssign(top, h.a)
	if weights, _, _ := h.levelWeights(top, gc, ca); slices.Min(weights) > 0 {
		if top == 0 {
			return 0, false, nil
		}
		moved, err = CoarseBalance(ctx, gc, ca, h.fineTargets(), solver)
		return moved, false, err
	}
	part, rerr := spectral.RSBContext(ctx, gc, h.p, spectral.Options{Seed: h.opt.Seed})
	if errors.Is(rerr, cancel.ErrCanceled) {
		return 0, false, rerr
	}
	if rerr != nil {
		return 0, false, nil
	}
	for v := 0; v < gc.Order(); v++ {
		if gc.Alive(graph.Vertex(v)) && part[v] != ca.Part[v] {
			moved += int(math.Round(h.levelWeight(top, graph.Vertex(v))))
			ca.Part[v] = part[v]
		}
	}
	return moved, true, nil
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
	h.connBuf = par.Sized(h.connBuf, p)
	conn := h.connBuf
	// Seed from the changed vertices and their neighborhoods: mark them,
	// then push their moves in one ascending scan of the slots — O(order),
	// like the projection that produced changed.
	h.seedMarks.Grow(fg.Order())
	h.seedMarks.Next()
	for _, v := range changed {
		h.seedMarks.TryMark(v)
		for _, u := range fg.Neighbors(v) {
			h.seedMarks.TryMark(u)
		}
	}
	h.moves = h.moves[:0]
	for v := range graph.Vertex(fg.Order()) {
		if h.seedMarks.Marked(v) {
			h.moves.PushMoves(fg, fa.Part, v, conn)
		}
	}

	moved := 0
	budget := 2*fg.NumVertices() + 64
	for len(h.moves) > 0 && moved < budget {
		e := h.moves.Pop()
		if !fg.Alive(e.V) {
			continue
		}
		from := fa.Part[e.V]
		if from < 0 || from == e.To {
			continue
		}
		// Recompute the gain: the stored one may be stale. Applying the
		// fresh gain keeps every applied move strictly cut-reducing.
		if refine.MoveGain(fg, fa.Part, e.V, e.To) <= 0 {
			continue
		}
		wv := h.levelWeight(l, e.V)
		devBefore := math.Abs(weights[from] - float64(targets[from]))
		if d := math.Abs(weights[e.To] - float64(targets[e.To])); d > devBefore {
			devBefore = d
		}
		devAfter := math.Abs(weights[from] - wv - float64(targets[from]))
		if d := math.Abs(weights[e.To] + wv - float64(targets[e.To])); d > devAfter {
			devAfter = d
		}
		if devAfter > slack && devAfter > devBefore {
			continue
		}
		fa.Part[e.V] = e.To
		weights[from] -= wv
		weights[e.To] += wv
		moved++
		h.moves.PushMoves(fg, fa.Part, e.V, conn)
		for _, u := range fg.Neighbors(e.V) {
			h.moves.PushMoves(fg, fa.Part, u, conn)
		}
	}
	h.moves = h.moves[:0]
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
