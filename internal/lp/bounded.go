package lp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cancel"
)

// Bounded is a two-phase simplex with the upper-bound technique: variable
// bounds 0 ≤ x ≤ u are handled implicitly (nonbasic variables may sit at
// either bound, and "bound flips" replace pivots when a variable crosses
// its range), so the tableau contains only the general constraints. The
// balance and refine LPs are almost all bounds, making this dramatically
// smaller than the paper's dense formulation — it is the ablation that
// quantifies that design choice.
//
// Bounded is a stateless configuration value; Solve runs each problem
// through a throwaway session, so the returned Solution is freshly
// allocated and concurrent Solve calls are safe. It also implements
// [SessionSolver]: NewSession returns a stateful instance whose tableau
// and Solution arenas are reused across solves — the form the engine
// holds, which makes warm steady-state solves allocation-free.
type Bounded struct {
	MaxIter    int // 0 = default 200000
	BlandAfter int // 0 = default 5000
}

// Name implements Solver.
func (Bounded) Name() string { return "bounded" }

func (s Bounded) maxIter() int {
	if s.MaxIter == 0 {
		return 200000
	}
	return s.MaxIter
}

func (s Bounded) blandAfter() int {
	if s.BlandAfter == 0 {
		return 5000
	}
	return s.BlandAfter
}

// NewSession implements [SessionSolver]: a private stateful instance for
// one solve stream, with reused arenas.
func (s Bounded) NewSession() Solver {
	return &boundedSession{maxIter: s.maxIter(), blandAfter: s.blandAfter()}
}

// Solve implements Solver via a throwaway session, so the result does
// not alias any reused state.
func (s Bounded) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	ses := boundedSession{maxIter: s.maxIter(), blandAfter: s.blandAfter()}
	return ses.Solve(ctx, p)
}

// boundedSession is the stateful form of [Bounded]: one solve stream's
// tableau state and Solution arena. Not safe for concurrent use — like
// every session solver it belongs to one engine (or one goroutine).
type boundedSession struct {
	maxIter    int
	blandAfter int
	st         boundedState

	// Solution arena: Solve returns &sol, overwritten by the next Solve
	// on this session.
	sol  Solution
	solX []float64
}

// Name implements Solver.
func (s *boundedSession) Name() string { return "bounded" }

type boundedState struct {
	rows     [][]float64 // m × nCols, maintained as B⁻¹A
	xB       []float64   // values of basic variables
	basis    []int
	atUpper  []bool    // nonbasic-at-upper flags, indexed by column
	basic    []bool    // in-basis flags, rebuilt per iterate call
	upper    []float64 // per-column upper bound (Inf for slacks/artificials)
	cost     []float64
	origCost []float64
	p1cost   []float64 // phase-1 costs: 1 on artificials, 0 elsewhere
	d        []float64 // reduced costs
	m        int
	nStruct  int
	artStart int
	nCols    int
	flip     bool
	iters    int
}

// Solve implements Solver. Like every session solver, the returned
// *Solution (including X) is an arena overwritten by this session's
// next Solve.
func (s *boundedSession) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := &s.st
	st.build(p)

	// Phase 1.
	needPhase1 := false
	for _, b := range st.basis[:st.m] {
		if b >= st.artStart {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		st.cost = st.p1cost
		status, err := st.iterate(ctx, s.maxIter, s.blandAfter, false)
		if err != nil {
			return nil, err
		}
		if status == IterLimit {
			return s.finish(IterLimit), nil
		}
		if status == Unbounded {
			return nil, fmt.Errorf("lp: bounded: phase 1 unbounded (internal error)")
		}
		if z := st.phase1Value(); z > 1e-7 {
			return s.finish(Infeasible), nil
		}
		st.expelArtificials()
	}

	st.cost = st.origCost
	status, err := st.iterate(ctx, s.maxIter, s.blandAfter, true)
	if err != nil {
		return nil, err
	}
	return s.finish(status), nil
}

// build lays out p in the session's standard form, reusing every arena.
// RHS-negative rows are folded in by sign instead of materializing
// negated term copies: row[t.Var] += sign·t.Coef and rhs = sign·RHS are
// the exact float operations the old negated-copy construction
// performed, so the tableau is bit-identical to it.
func (st *boundedState) build(p *Problem) {
	n := p.NumVars()
	m := len(p.Cons)
	nSlack, nArt := 0, 0
	for _, c := range p.Cons {
		rel := c.Rel
		if c.RHS < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	st.m = m
	st.nStruct = n
	st.artStart = n + nSlack
	st.nCols = n + nSlack + nArt
	st.flip = p.Sense == Maximize
	st.iters = 0
	st.rows = growRows(st.rows, m, st.nCols)
	st.xB = growF(st.xB, m)
	st.basis = growI(st.basis, m)
	st.atUpper = growB(st.atUpper, st.nCols)
	st.basic = growB(st.basic, st.nCols)
	st.upper = growF(st.upper, st.nCols)
	st.origCost = growF(st.origCost, st.nCols)
	st.p1cost = growF(st.p1cost, st.nCols)
	st.d = growF(st.d, st.nCols)
	for j := 0; j < st.nCols; j++ {
		st.atUpper[j] = false
		st.upper[j] = Inf
		st.origCost[j] = 0
		st.p1cost[j] = 0
	}
	copy(st.upper, p.Upper)
	for j := st.artStart; j < st.nCols; j++ {
		st.p1cost[j] = 1
	}

	slackCol, artCol := n, st.artStart
	for i, c := range p.Cons {
		row := st.rows[i]
		for j := range row {
			row[j] = 0
		}
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		for _, tm := range c.Terms {
			row[tm.Var] += sign * tm.Coef
		}
		st.xB[i] = sign * c.RHS
		switch rel {
		case LE:
			row[slackCol] = 1
			st.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			st.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			st.basis[i] = artCol
			artCol++
		}
	}
	for v, c := range p.Obj {
		if st.flip {
			c = -c
		}
		st.origCost[v] = c
	}
}

func (st *boundedState) phase1Value() float64 {
	var z float64
	for i, b := range st.basis[:st.m] {
		if b >= st.artStart {
			z += st.xB[i]
		}
	}
	return z
}

func (st *boundedState) isBasic(j int) bool {
	for _, b := range st.basis[:st.m] {
		if b == j {
			return true
		}
	}
	return false
}

// iterate runs bounded-variable simplex pivots for the current cost.
func (st *boundedState) iterate(ctx context.Context, maxIter, blandAfter int, banArtificials bool) (Status, error) {
	// Reduced costs d = c − c_B·B⁻¹A.
	d := st.d
	copy(d, st.cost)
	for i, bi := range st.basis[:st.m] {
		cb := st.cost[bi]
		if cb == 0 {
			continue
		}
		for j, a := range st.rows[i] {
			d[j] -= cb * a
		}
	}
	for j := 0; j < st.nCols; j++ {
		st.basic[j] = false
	}
	for _, b := range st.basis[:st.m] {
		st.basic[b] = true
	}
	limit := st.nCols
	if banArtificials {
		limit = st.artStart
	}
	for {
		if st.iters >= maxIter {
			return IterLimit, nil
		}
		if st.iters&ctxCheckMask == 0 {
			if err := cancel.Check(ctx, "bounded simplex"); err != nil {
				return IterLimit, err
			}
		}
		// Entering column: nonbasic at lower with d<0, or at upper with
		// d>0. Dantzig keeps the strictly largest violation (ascending
		// scan, so the smallest column among exact ties); Bland takes the
		// first eligible column.
		bland := st.iters >= blandAfter
		enter, best := -1, 0.0
		for j := 0; j < limit; j++ {
			if st.basic[j] {
				continue
			}
			viol := -d[j]
			if st.atUpper[j] {
				viol = d[j]
			}
			if viol > feasTol && viol > best {
				enter, best = j, viol
				if bland {
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		sign := 1.0
		if st.atUpper[enter] {
			sign = -1
		}

		// Ratio test: the entering variable moves by t ≥ 0 until either a
		// basic variable hits one of its bounds (pivot) or the entering
		// variable reaches its opposite bound (flip).
		rowT := math.Inf(1)
		leave := -1
		leaveToUpper := false
		for i := range st.rows {
			y := st.rows[i][enter]
			dx := -sign * y // change in basic i per unit t
			var ti float64
			var toUpper bool
			switch {
			case dx < -feasTol: // basic decreases toward 0
				ti, toUpper = st.xB[i]/(-dx), false
			case dx > feasTol: // basic increases toward its upper bound
				ub := st.upper[st.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				ti, toUpper = (ub-st.xB[i])/dx, true
			default:
				continue
			}
			if ti < rowT-feasTol ||
				(ti < rowT+feasTol && (leave < 0 || st.basis[i] < st.basis[leave])) {
				rowT, leave, leaveToUpper = ti, i, toUpper
			}
		}
		boundT := st.upper[enter]

		if math.IsInf(rowT, 1) && math.IsInf(boundT, 1) {
			return Unbounded, nil
		}

		if boundT <= rowT+feasTol {
			// Pure bound flip: x_enter runs to its opposite bound.
			for i := range st.rows {
				st.xB[i] += -sign * st.rows[i][enter] * boundT
				if st.xB[i] < 0 && st.xB[i] > -1e-9 {
					st.xB[i] = 0
				}
			}
			st.atUpper[enter] = !st.atUpper[enter]
			st.iters++
			continue
		}

		t := rowT
		if t < 0 {
			t = 0
		}
		for i := range st.rows {
			st.xB[i] += -sign * st.rows[i][enter] * t
			if st.xB[i] < 0 && st.xB[i] > -1e-9 {
				st.xB[i] = 0
			}
		}

		// Pivot: entering becomes basic with value (entry bound + sign·t).
		entVal := sign * t
		if st.atUpper[enter] {
			entVal = st.upper[enter] + entVal
		}
		leaveCol := st.basis[leave]
		st.atUpper[leaveCol] = leaveToUpper
		st.basic[leaveCol] = false
		st.basic[enter] = true
		st.atUpper[enter] = false

		// Row-eta update: scale the pivot row, eliminate the entering
		// column from every other row and from the reduced costs.
		rowL := st.rows[leave]
		inv := 1 / rowL[enter]
		for j := range rowL {
			rowL[j] *= inv
		}
		for i, ri := range st.rows {
			f := ri[enter]
			if i == leave || f == 0 {
				continue
			}
			for j, a := range rowL {
				ri[j] -= f * a
			}
			ri[enter] = 0
		}
		if fd := d[enter]; fd != 0 {
			for j, a := range rowL {
				d[j] -= fd * a
			}
			d[enter] = 0
		}
		rowL[enter] = 1
		st.basis[leave] = enter
		st.xB[leave] = entVal
		st.iters++
	}
}

// expelArtificials mirrors the dense solver's basis cleanup. It runs at
// most once per solve on a handful of rows, so it stays sequential.
func (st *boundedState) expelArtificials() {
	for i := range st.basis[:st.m] {
		if st.basis[i] < st.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < st.artStart; j++ {
			if math.Abs(st.rows[i][j]) > 1e-7 && !st.isBasic(j) {
				// Pivot with zero movement (the artificial is at 0).
				piv := st.rows[i][j]
				inv := 1 / piv
				ri := st.rows[i]
				for k := range ri {
					ri[k] *= inv
				}
				ri[j] = 1
				for r := range st.rows {
					if r == i {
						continue
					}
					f := st.rows[r][j]
					if f == 0 {
						continue
					}
					rr := st.rows[r]
					for k := range rr {
						rr[k] -= f * ri[k]
					}
					rr[j] = 0
				}
				// Zero-movement pivot: the entering variable keeps its
				// nonbasic resting value, now recorded as its basic value.
				rest := 0.0
				if st.atUpper[j] {
					rest = st.upper[j]
				}
				st.basis[i] = j
				st.atUpper[j] = false
				st.xB[i] = rest
				pivoted = true
				break
			}
		}
		if !pivoted {
			for j := range st.rows[i] {
				st.rows[i][j] = 0
			}
			st.rows[i][st.basis[i]] = 1
			st.xB[i] = 0
		}
	}
}

// finish extracts the finished state into the session's Solution arena
// (X is zeroed explicitly — growF does not zero).
func (s *boundedSession) finish(status Status) *Solution {
	st := &s.st
	s.sol = Solution{Status: status, Iterations: st.iters}
	if status != Optimal {
		return &s.sol
	}
	s.solX = growF(s.solX, st.nStruct)
	x := s.solX
	for j := range x {
		x[j] = 0
	}
	for j := 0; j < st.nStruct; j++ {
		if st.atUpper[j] {
			x[j] = st.upper[j]
		}
	}
	for i, b := range st.basis[:st.m] {
		if b < st.nStruct {
			x[b] = st.xB[i]
		}
	}
	obj := 0.0
	for v := 0; v < st.nStruct; v++ {
		obj += st.origCost[v] * x[v]
	}
	if st.flip {
		obj = -obj
	}
	s.sol.X = x
	s.sol.Objective = obj
	return &s.sol
}

// GrowFloats resizes a reusable float slice to length n without
// shrinking capacity, allocating only on growth. Shared by the solver
// scratch here and the balance/refine formulation arenas — one copy,
// so a future change to the growth policy cannot drift between them.
// Values beyond a previous length are stale and must be overwritten.
func GrowFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growF/growI/growB/growRows resize reusable scratch slices without
// shrinking capacity.
func growF(s []float64, n int) []float64 { return GrowFloats(s, n) }

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growRows(rows [][]float64, m, nCols int) [][]float64 {
	if cap(rows) < m {
		grown := make([][]float64, m)
		copy(grown, rows[:cap(rows)])
		rows = grown
	}
	rows = rows[:m]
	for i := range rows {
		rows[i] = growF(rows[i], nCols)
	}
	return rows
}
