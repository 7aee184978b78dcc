// Package refine implements the paper's Step 4: cut-reducing vertex
// movement under exact load preservation. Boundary vertices whose edge
// count toward a foreign partition j is at least their internal edge count
// are candidates b(i,j); the LP
//
//	maximize   Σ l(i,j)
//	subject to 0 ≤ l(i,j) ≤ b(i,j)
//	           outflow(j) − inflow(j) = 0      for every j
//
// moves as many of them as possible without disturbing partition sizes.
// The step is iterated; after a configurable number of rounds the
// candidate test switches from ≥ to > (the paper's "strict inequality"
// guard against vertices with zero net gain oscillating between
// partitions).
package refine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/lp"
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
	// pools[i][j] lists those candidates, best gain first.
	pools [][][]graph.Vertex
	// Gain[v] is out(v, best j) − in(v) for bookkeeping (0 for
	// non-candidates).
	Gain []float64
}

// Pool returns the candidates for the (i,j) pair, best gain first.
func (c *Candidates) Pool(i, j int32) []graph.Vertex { return c.pools[i][j] }

type cand struct {
	v    graph.Vertex
	gain float64
}

// Scratch holds the reusable state of the gains kernel. The zero value is
// ready to use; buffers grow to the largest graph seen and are reused, so
// steady-state gain scans allocate nothing. The Candidates returned by
// its methods are owned by the Scratch and invalidated by the next call.
//
// Procs > 1 switches GainsSeeded to its sharded parallel form (see
// parallel.go): the deduped seed list is split into contiguous shards,
// workers classify into private pair buckets, and the join concatenates
// buckets in worker order before the total-order sort — so the produced
// Candidates are bit-identical to the sequential scan's for every
// worker count. Group, when non-nil, is the shared fork-join executor
// (the engine passes its own so per-worker busy times roll up across
// kernels); nil uses a private one.
type Scratch struct {
	cands   Candidates
	buckets [][]cand
	out     []float64
	touched []int32
	sorter  candSorter
	stamp   []uint32 // per-call vertex dedup marker (duplicate seeds)
	gen     uint32

	// Parallel state; see parallel.go.
	Procs    int
	Group    *par.Group
	ownGroup par.Group
	gws      []gainWorker
	seedBuf  []graph.Vertex
	shards   []par.Range
	task     gainsTask
}

// candSorter orders candidates best gain first, vertex id as tiebreak — a
// total order, so the result is independent of insertion order. It is a
// reused sort.Interface so sorting costs no per-call allocation.
type candSorter struct{ cs []cand }

func (s *candSorter) Len() int { return len(s.cs) }
func (s *candSorter) Less(i, j int) bool {
	if s.cs[i].gain != s.cs[j].gain {
		return s.cs[i].gain > s.cs[j].gain
	}
	return s.cs[i].v < s.cs[j].v
}
func (s *candSorter) Swap(i, j int) { s.cs[i], s.cs[j] = s.cs[j], s.cs[i] }

// Gains scans all boundary vertices and builds the candidate pools.
// strict selects the > 0 test instead of ≥ 0.
func Gains(g *graph.Graph, a *partition.Assignment, strict bool) (*Candidates, error) {
	var s Scratch
	return s.Gains(g, a, strict)
}

// Gains is the scratch-reusing form of the package-level Gains.
func (s *Scratch) Gains(g *graph.Graph, a *partition.Assignment, strict bool) (*Candidates, error) {
	if err := a.Validate(g); err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	c := s.grow(g.Order(), a.P)
	for vi := 0; vi < g.Order(); vi++ {
		v := graph.Vertex(vi)
		if !g.Alive(v) {
			continue
		}
		s.consider(v, g.Neighbors(v), g.EdgeWeights(v), a, strict)
	}
	s.finish()
	return c, nil
}

// GainsSeeded runs the gains kernel over a CSR snapshot, examining only
// the seed vertices. Every candidate has at least one foreign edge, so a
// seed list containing all boundary vertices (duplicates and extras are
// harmless) yields exactly the candidates a full scan would find.
func (s *Scratch) GainsSeeded(c *graph.CSR, a *partition.Assignment, strict bool, seeds []graph.Vertex) (*Candidates, error) {
	if err := a.ValidateCSR(c); err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	if s.Procs > 1 {
		return s.gainsSeededPar(c, a, strict, seeds), nil
	}
	out := s.grow(c.Order(), a.P)
	for _, v := range seeds {
		if !c.Live[v] {
			continue
		}
		s.consider(v, c.Row(v), c.RowWeights(v), a, strict)
	}
	s.finish()
	return out, nil
}

func (s *Scratch) grow(n, p int) *Candidates {
	c := &s.cands
	c.P = p
	if cap(c.B) < p {
		c.B = make([][]int, p)
	}
	c.B = c.B[:p]
	if cap(c.pools) < p {
		c.pools = make([][][]graph.Vertex, p)
	}
	c.pools = c.pools[:p]
	for i := 0; i < p; i++ {
		if cap(c.B[i]) < p {
			c.B[i] = make([]int, p)
		}
		c.B[i] = c.B[i][:p]
		for j := range c.B[i] {
			c.B[i][j] = 0
		}
		if cap(c.pools[i]) < p {
			c.pools[i] = make([][]graph.Vertex, p)
		}
		c.pools[i] = c.pools[i][:p]
		for j := range c.pools[i] {
			c.pools[i][j] = c.pools[i][j][:0]
		}
	}
	if cap(c.Gain) < n {
		c.Gain = make([]float64, n)
	}
	c.Gain = c.Gain[:n]
	for i := range c.Gain {
		c.Gain[i] = 0
	}
	if cap(s.buckets) < p*p {
		s.buckets = make([][]cand, p*p)
	}
	s.buckets = s.buckets[:p*p]
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	if cap(s.out) < p {
		s.out = make([]float64, p)
	}
	s.out = s.out[:p]
	for i := range s.out {
		s.out[i] = 0
	}
	s.touched = s.touched[:0]
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
	}
	s.stamp = s.stamp[:n]
	s.gen++
	if s.gen == 0 { // wrapped: the stale stamps are ambiguous, clear them
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	return c
}

// consider classifies one vertex. A vertex may qualify toward several
// foreign partitions; it joins only the pool of its best one (ties toward
// the smaller id) so the pools are disjoint and Apply can realize any LP
// flow without moving a vertex twice — which would silently break the
// balance the zero-net-flow constraints guarantee.
func (s *Scratch) consider(v graph.Vertex, adj []graph.Vertex, ws []float64, a *partition.Assignment, strict bool) {
	if s.stamp[v] == s.gen {
		return // duplicate seed: already classified this call
	}
	s.stamp[v] = s.gen
	pv := a.Part[v]
	var in float64
	out := s.out
	touched := s.touched[:0]
	for k, u := range adj {
		pu := a.Part[u]
		if pu == pv {
			in += ws[k]
			continue
		}
		if out[pu] == 0 {
			touched = append(touched, pu)
		}
		out[pu] += ws[k]
	}
	bestJ := int32(-1)
	var bestGain float64
	for _, j := range touched {
		gain := out[j] - in
		out[j] = 0
		if gain < 0 || (strict && gain == 0) {
			continue
		}
		if bestJ < 0 || gain > bestGain || (gain == bestGain && j < bestJ) {
			bestJ, bestGain = j, gain
		}
	}
	s.touched = touched[:0]
	if bestJ >= 0 {
		p := s.cands.P
		s.buckets[int(pv)*p+int(bestJ)] = append(s.buckets[int(pv)*p+int(bestJ)], cand{v, bestGain})
		s.cands.Gain[v] = bestGain
	}
}

// finish sorts each pair's bucket into the pools.
func (s *Scratch) finish() {
	c := &s.cands
	p := c.P
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			cs := s.buckets[i*p+j]
			if len(cs) == 0 {
				continue
			}
			s.sorter.cs = cs
			sort.Sort(&s.sorter)
			pool := c.pools[i][j]
			for _, cd := range cs {
				pool = append(pool, cd.v)
			}
			c.pools[i][j] = pool
			c.B[i][j] = len(pool)
		}
	}
	s.sorter.cs = nil
}

// LPArena owns the reusable buffers of the refinement-LP formulation:
// the Problem's objective/bound/constraint storage and the pair
// mapping. Buffers grow to the largest round seen and are then reused,
// so steady-state formulation through a warm engine allocates nothing.
// The Problem and pair slice returned by Formulate are owned by the
// arena and invalidated by its next call. The zero value is ready.
type LPArena struct {
	prob  lp.Problem
	pairs [][2]int32
	terms []lp.Term
	off   []int // partition j's row is terms[off[j]:off[j+1]]
	cons  []lp.Constraint
}

// Formulate is the arena-backed form of the package-level [Formulate]:
// the identical LP, built into reused buffers and without diagnostic
// variable names.
func (ar *LPArena) Formulate(c *Candidates) (*lp.Problem, [][2]int32) {
	ar.pairs = ar.pairs[:0]
	for i := 0; i < c.P; i++ {
		for j := 0; j < c.P; j++ {
			if i != j && c.B[i][j] > 0 {
				ar.pairs = append(ar.pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	pairs := ar.pairs
	n := len(pairs)
	prob := &ar.prob
	prob.Sense = lp.Maximize
	prob.Names = nil
	prob.Obj = lp.GrowFloats(prob.Obj, n)
	prob.Upper = lp.GrowFloats(prob.Upper, n)
	for v, pr := range pairs {
		prob.Obj[v] = 1
		prob.Upper[v] = float64(c.B[pr[0]][pr[1]])
	}
	ar.terms, ar.off = fillRows(ar.terms, ar.off, pairs, c.P)
	ar.cons = ar.cons[:0]
	for j := 0; j < c.P; j++ {
		if terms := ar.terms[ar.off[j]:ar.off[j+1]]; len(terms) > 0 {
			ar.cons = append(ar.cons, lp.Constraint{Terms: terms, Rel: lp.EQ, RHS: 0})
		}
	}
	prob.Cons = ar.cons
	return prob, pairs
}

// fillRows writes the zero-net-flow rows of the pair variables into terms
// — +1 on the row of a pair's source partition, −1 on its target's — and
// returns the buffer with the row offsets: partition j's row is
// terms[off[j]:off[j+1]]. Two counting passes over the pairs, O(pairs + p):
// the first sizes every row, the second writes the terms in variable
// order, so each row lists its variables ascending.
func fillRows(terms []lp.Term, off []int, pairs [][2]int32, p int) ([]lp.Term, []int) {
	if cap(terms) < 2*len(pairs) {
		terms = make([]lp.Term, 2*len(pairs))
	}
	terms = terms[:2*len(pairs)]
	if cap(off) < p+2 {
		off = make([]int, p+2)
	}
	off = off[:p+2]
	for j := range off {
		off[j] = 0
	}
	// off[j+2] counts row j, the running sum turns off[j+1] into its start,
	// and filling advances off[j+1] to its end — the start of row j+1.
	for _, pr := range pairs {
		off[pr[0]+2]++
		off[pr[1]+2]++
	}
	for j := 2; j < len(off); j++ {
		off[j] += off[j-1]
	}
	for v, pr := range pairs {
		terms[off[pr[0]+1]] = lp.Term{Var: v, Coef: 1}
		off[pr[0]+1]++
		terms[off[pr[1]+1]] = lp.Term{Var: v, Coef: -1}
		off[pr[1]+1]++
	}
	return terms, off
}

// Formulate builds the refinement LP over pairs with b(i,j) > 0. This
// one-shot form allocates a fresh formulation with diagnostic variable
// names; the engine formulates through a reused [LPArena] instead.
func Formulate(c *Candidates) (*lp.Problem, [][2]int32) {
	var ar LPArena
	prob, pairs := ar.Formulate(c)
	prob.Names = make([]string, len(pairs))
	for v, pr := range pairs {
		prob.Names[v] = fmt.Sprintf("l(%d,%d)", pr[0], pr[1])
	}
	return prob, pairs
}

// Apply moves the best-gain prefix of each pair's pool per the LP flows,
// returning the number of vertices moved.
func Apply(a *partition.Assignment, c *Candidates, pairs [][2]int32, x []float64) (int, error) {
	moved := 0
	for v, amt := range x {
		r := math.Round(amt)
		if math.Abs(amt-r) > 1e-6 {
			return moved, fmt.Errorf("refine: non-integral flow %g for pair %v", amt, pairs[v])
		}
		k := int(r)
		if k == 0 {
			continue
		}
		pool := c.Pool(pairs[v][0], pairs[v][1])
		if k > len(pool) {
			return moved, fmt.Errorf("refine: flow %d exceeds pool %d for pair %v", k, len(pool), pairs[v])
		}
		for _, vert := range pool[:k] {
			if a.Part[vert] != pairs[v][0] {
				return moved, fmt.Errorf("refine: vertex %d moved twice in one round", vert)
			}
			a.Part[vert] = pairs[v][1]
			moved++
		}
	}
	return moved, nil
}

// Options configures the iterative refinement driver.
type Options struct {
	// MaxRounds caps LP refinement rounds (0 = default 8).
	MaxRounds int
	// StrictAfter switches the candidate test to strict inequality after
	// this many rounds (0 = default 2; the paper recommends the switch
	// "after a few steps").
	StrictAfter int
	// Solver picks the simplex implementation (nil = lp.Default()).
	Solver lp.Solver
	// OnRound, if non-nil, is invoked after each applied round with the
	// 1-based round number and the vertices moved — the observability hook
	// the engine turns into stage events.
	OnRound func(round, moved int)
	// Arena, if non-nil, receives the per-round LP formulations (reused
	// buffers, zero steady-state allocation). The engine passes its own;
	// one-shot callers leave it nil and get fresh formulations.
	Arena *LPArena
	// CutWeight, if non-nil, replaces the driver's per-round
	// partition.Cut(g, a).TotalWeight rescan with an equivalent cheaper
	// evaluation of the current assignment's cut weight. It must return a
	// value bit-identical to the rescan's (the engine supplies its
	// boundary-seeded incremental cut, which is); the driver's
	// best-assignment tracking compares these floats exactly.
	CutWeight func() float64
}

// Rounds returns MaxRounds with the default applied.
func (o Options) Rounds() int {
	if o.MaxRounds <= 0 {
		return 8
	}
	return o.MaxRounds
}

// StrictAfterRounds returns StrictAfter with the default applied.
func (o Options) StrictAfterRounds() int {
	if o.StrictAfter <= 0 {
		return 2
	}
	return o.StrictAfter
}

// ResolveSolver returns Solver with the default applied.
func (o Options) ResolveSolver() lp.Solver {
	if o.Solver == nil {
		return lp.Default()
	}
	return o.Solver
}

// Stats reports what the refinement driver did.
type Stats struct {
	Rounds     int
	Moved      int
	CutBefore  float64
	CutAfter   float64
	LPVars     int // columns of the largest round's dense formulation
	LPCons     int
	Iterations int // total simplex pivots
	// RoundPivots lists the pivots of every LP solved, in round order
	// (including a final round whose solution was not applied). With a
	// warm-started solver, later rounds resume from earlier bases and
	// these counts drop off sharply after round one.
	RoundPivots []int
}

// Refine iteratively improves the cut of assignment a without changing
// partition sizes. It modifies a in place and keeps the best assignment
// seen, so the result never has a worse cut than the input.
func Refine(g *graph.Graph, a *partition.Assignment, opt Options) (*Stats, error) {
	var scratch Scratch // one gains arena reused across rounds
	st, _, err := Drive(context.Background(), g, a, opt, func(strict bool) (*Candidates, error) {
		return scratch.Gains(g, a, strict)
	}, nil)
	return st, err
}

// Drive is the iterated refinement loop shared by the one-shot Refine and
// the engine: each round it calls gains for the candidate pools, solves
// the zero-net-flow LP, applies the moves, and tracks the best assignment
// seen (restored at the end if a later round regressed). bestBuf, if
// non-nil, is reused for the best-assignment snapshot; the (possibly
// regrown) buffer is returned for the caller to keep.
//
// The context is polled before every round and inside the LP solve. An
// abort restores the best assignment seen so far, so a canceled
// refinement still leaves a valid (and never-worse) partition behind.
func Drive(ctx context.Context, g *graph.Graph, a *partition.Assignment, opt Options, gains func(strict bool) (*Candidates, error), bestBuf []int32) (*Stats, []int32, error) {
	cutWeight := opt.CutWeight
	if cutWeight == nil {
		cutWeight = func() float64 { return partition.Cut(g, a).TotalWeight }
	}
	solver := opt.ResolveSolver()
	st := &Stats{}
	st.CutBefore = cutWeight()
	best := append(bestBuf[:0], a.Part...)
	bestCut := st.CutBefore
	cur := st.CutBefore
	var abort error
	for round := 0; round < opt.Rounds(); round++ {
		if err := cancel.Check(ctx, "refinement"); err != nil {
			abort = err
			break
		}
		strict := round >= opt.StrictAfterRounds()
		cands, err := gains(strict)
		if err != nil {
			abort = err
			break
		}
		var prob *lp.Problem
		var pairs [][2]int32
		if opt.Arena != nil {
			prob, pairs = opt.Arena.Formulate(cands)
		} else {
			prob, pairs = Formulate(cands)
		}
		if len(pairs) == 0 {
			break
		}
		if v, c := lp.DenseSize(prob); v > st.LPVars {
			st.LPVars, st.LPCons = v, c
		}
		sol, err := solver.Solve(ctx, prob)
		if err != nil {
			abort = fmt.Errorf("refine: %w", err)
			break
		}
		st.Iterations += sol.Iterations
		st.RoundPivots = append(st.RoundPivots, sol.Iterations)
		if sol.Status != lp.Optimal || sol.Objective < 0.5 {
			break
		}
		moved, err := Apply(a, cands, pairs, sol.X)
		if err != nil {
			abort = err
			break
		}
		st.Rounds++
		st.Moved += moved
		if opt.OnRound != nil {
			opt.OnRound(st.Rounds, moved)
		}
		cur = cutWeight()
		if cur < bestCut {
			bestCut = cur
			best = append(best[:0], a.Part...)
		}
		if moved == 0 {
			break
		}
	}
	if cur > bestCut {
		copy(a.Part, best)
	}
	st.CutAfter = bestCut
	return st, best, abort
}
