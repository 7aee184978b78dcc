package coarsen

// hierarchy.go is the V-cycle's coarse hierarchy: a stack of
// heavy-edge-matched coarse graphs built for one V-cycle. Update builds
// every level bottom-up from the graph and assignment it is handed and
// keeps nothing from an earlier call, so a V-cycle is a function of the
// current state alone: the engine makes a Hierarchy when it enters the
// V-cycle and drops it when the call returns.
//
// Storage: each level is one exact-size slab for graph.AppendRows, in
// the layout TestHierarchyLocked's digests pin: a row lists its
// neighbours ascending, and an arc weighs its lower endpoint's aggregate.
//
// Weights: a coarse vertex's weight is the number of *level-0* vertices
// it represents (every fine vertex counts 1, whatever its application
// weight), so weighted balance at any level speaks the engine's
// vertex-count balance language. Matching is restricted to
// same-partition pairs (the paper's §4 rule), so every level inherits a
// well-defined partition.
//
// Determinism: the hierarchy runs on the calling goroutine, and every
// operation iterates in ascending vertex order or an explicitly sorted
// one. No map iteration reaches a graph mutation or a float
// accumulation, so a V-cycle is a pure function of the graph and the
// assignment it is handed. TestHierarchyLocked pins its output.

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
	// Vertices and Edges are the coarse graph's sizes after Update (one
	// vertex per group the level's matching formed).
	Vertices, Edges int
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
	gc    *graph.Graph          // coarse graph (hierarchy-owned)
	ca    *partition.Assignment // coarse assignment, parallel to gc slots
	match []graph.Vertex        // fine partner (self = singleton), fine slots
	f2c   []graph.Vertex        // fine slot → coarse slot, −1 = dead slot
}

// Hierarchy is a multilevel coarsening of one graph. It is bound to the
// graph at creation; Update builds the level stack bottom-up,
// SolveCoarsest partitions the coarsest graph, and Uncoarsen projects
// the coarse decision back down with per-level greedy refinement. A
// Hierarchy is not safe for concurrent use and all returned slices are
// arenas reused by the next call.
type Hierarchy struct {
	g      *graph.Graph
	a      *partition.Assignment // level 0's assignment, as Update last saw it
	opt    HierarchyOptions
	p      int
	levels []*level
	lstats []LevelStats

	// Scratch arenas, grown to the largest level seen.
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
	// the slots it hit; offBuf and fillBuf index the level's rows.
	acc     []float64
	accSeen par.Stamps
	ids     []graph.Vertex
	offBuf  []int
	fillBuf []int

	mt matcher // match.go
}

// stall: a contraction that keeps more than 19/20 of the fine vertices
// is not worth a level.
const stallNum, stallDen = 19, 20

// NewHierarchy returns an empty hierarchy bound to g. Update builds the
// level stack.
func NewHierarchy(g *graph.Graph, opt HierarchyOptions) *Hierarchy {
	return &Hierarchy{g: g, opt: opt}
}

// Depth returns the number of coarse levels.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// Levels returns per-level statistics for the last Update/Uncoarsen
// pair. The slice is an arena overwritten by the next Update.
func (h *Hierarchy) Levels() []LevelStats { return h.lstats }

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

// Update builds the level stack for the graph and assignment a, from
// scratch: levels are added while the coarsest graph stays above the
// CoarsenTo threshold, up to maxLevels, and a level that would keep more
// than 19/20 of its fine vertices (coarsening stalls) is not kept. Every
// live vertex must be assigned (run phase 1 first). Nothing of an
// earlier call is reused, so repaired is always false; the result stays
// for the one caller outside the repository's root module that reads it
// (benchmarks/harness, until ROADMAP item 1(b) may edit it).
func (h *Hierarchy) Update(ctx context.Context, a *partition.Assignment) (repaired bool, err error) {
	h.a, h.p = a, a.P
	ct := h.opt.coarsenTo(h.p)
	h.levels, h.lstats = h.levels[:0], h.lstats[:0]
	for l := 0; l < maxLevels; l++ {
		fg := h.levelGraph(l)
		if fg.NumVertices() <= ct {
			break
		}
		if err := cancel.Check(ctx, "coarsen"); err != nil {
			return false, err
		}
		t0 := time.Now()
		lv := h.build(l, fg, h.levelAssign(l, a))
		if stallDen*lv.gc.NumVertices() > stallNum*fg.NumVertices() {
			break // this level buys < 5 % reduction: not worth keeping
		}
		h.levels = append(h.levels, lv)
		h.lstats = append(h.lstats, LevelStats{
			Vertices: lv.gc.NumVertices(), Edges: lv.gc.NumEdges(), CoarsenTime: time.Since(t0),
		})
	}
	return false, nil
}

// build coarsens one level: it heavy-edge-matches the live fine vertices
// with the greedy matcher (match.go: the suitor pass, then two-hop) and
// lays the groups out as the coarse graph, one per matched pair or
// leftover singleton, representatives in ascending slot order.
func (h *Hierarchy) build(l int, fg *graph.Graph, fa *partition.Assignment) *level {
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
	h.mt.run(fg, fa.Part, free)
	reps, vw := h.repsBuf[:0], h.vwBuf[:0]
	for _, v := range free {
		if f2c[v] >= 0 {
			continue // grouped as an earlier vertex's partner
		}
		cv := graph.Vertex(len(reps))
		u := h.mt.mate[v]
		w := h.levelWeight(l, v)
		f2c[v] = cv
		if u != v {
			w += h.levelWeight(l, u)
			f2c[u] = cv
			match[v], match[u] = u, v
		}
		reps = append(reps, v)
		vw = append(vw, w)
	}
	lv.ca.Part = make([]int32, len(reps))
	for i, v := range reps {
		lv.ca.Part[i] = fa.Part[v]
	}
	h.connectGroups(fg, lv, reps, vw)
	h.freeBuf, h.repsBuf, h.vwBuf = free[:0], reps[:0], vw[:0]
	return lv
}

// connectGroups lays out the coarse graph of level lv — group i is
// reps[i] (its smallest fine member) and its partner, weighs vw[i] and
// becomes coarse vertex i — in one graph.AppendRows call. Pass 1
// aggregates each group on a dense accumulator (each arc of either
// member adds its weight at its coarse endpoint's slot, in adjacency
// order; never via map iteration) and appends the touched slots, sorted,
// as the group's row to a transient buffer sized by the members' fine
// degrees. Pass 2 copies the rows once into an exact-size slab, in the
// layout the locked digests pin: each row ascending, and an arc carrying
// its lower endpoint's aggregate (written into the higher row as the
// lower row is laid out), so both rows hold the same float.
func (h *Hierarchy) connectGroups(fg *graph.Graph, lv *level, reps []graph.Vertex, vw []float64) {
	if n := len(reps); len(h.acc) < n {
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
		cv := graph.Vertex(i)
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
	adj := make([]graph.Vertex, len(runV))
	ew := make([]float64, len(runV))
	copy(adj, runV)
	fill := append(h.fillBuf[:0], off[:len(reps)]...) // next below-slot per row
	for i := range reps {
		lo, hi := off[i], off[i+1]
		b, _ := slices.BinarySearch(adj[lo:hi], graph.Vertex(i)) // row i's below: [lo, lo+b)
		for j := lo + b; j < hi; j++ {
			k := adj[j]
			ew[j] = runW[j]
			ew[fill[k]] = runW[j]
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
// no coarse level. When every part holds weight, the coarse partition is
// rebalanced by the weighted balance LP (CoarseBalance, ε-escalated), or at level 0
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
