package lp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cancel"
)

// Dense is the classical two-phase dense-tableau simplex — the solver the
// paper uses. Finite upper bounds are materialized as explicit ≤ rows, so
// problem size matches the paper's accounting (their v=188 variables,
// c=126 constraints example for |V|=1096, P=32).
type Dense struct {
	// MaxIter bounds total pivots (0 means the default of 200000).
	MaxIter int
}

// blandAfter is the pivot count after which Dense switches from Dantzig's
// rule to Bland's, which cannot cycle, so a degenerate LP still terminates.
const blandAfter = 5000

// Name implements Solver.
func (Dense) Name() string { return "dense" }

// Solve implements Solver.
func (d Dense) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := newTableau(p)
	maxIter := d.MaxIter
	if maxIter == 0 {
		maxIter = 200000
	}
	return t.solve(ctx, maxIter)
}

// tableau is a dense simplex tableau in standard form:
//
//	min c·x  s.t.  A x = b,  x ≥ 0,  b ≥ 0
//
// with columns ordered [structural | slack+surplus | artificial].
type tableau struct {
	p        *Problem
	rows     [][]float64 // m rows × (ncols) of B⁻¹A
	rhs      []float64   // B⁻¹ b
	basis    []int       // basic column of each row
	cost     []float64   // current phase's cost vector
	origCost []float64   // phase-2 cost (minimization sense)
	nStruct  int         // structural columns
	nCols    int
	artStart int  // first artificial column
	flip     bool // true if problem was a maximization (objective negated)
	iters    int
}

// newTableau converts p into standard form; finite upper bounds become
// explicit ≤ rows (the paper's dense formulation).
func newTableau(p *Problem) *tableau {
	n := p.NumVars()
	type row struct {
		terms []Term
		rel   Rel
		rhs   float64
	}
	rowsIn := make([]row, 0, len(p.Cons)+n)
	for _, c := range p.Cons {
		rowsIn = append(rowsIn, row{c.Terms, c.Rel, c.RHS})
	}
	for v, u := range p.Upper {
		if !math.IsInf(u, 1) {
			rowsIn = append(rowsIn, row{[]Term{{v, 1}}, LE, u})
		}
	}
	m := len(rowsIn)

	// Count slack/surplus and artificial columns after normalizing b ≥ 0.
	nSlack, nArt := 0, 0
	for i := range rowsIn {
		if rowsIn[i].rhs < 0 {
			// Multiply the row by −1, flipping the relation.
			nt := make([]Term, len(rowsIn[i].terms))
			for k, t := range rowsIn[i].terms {
				nt[k] = Term{t.Var, -t.Coef}
			}
			rowsIn[i].terms = nt
			rowsIn[i].rhs = -rowsIn[i].rhs
			switch rowsIn[i].rel {
			case LE:
				rowsIn[i].rel = GE
			case GE:
				rowsIn[i].rel = LE
			}
		}
		switch rowsIn[i].rel {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}

	t := &tableau{
		p:        p,
		nStruct:  n,
		artStart: n + nSlack,
		nCols:    n + nSlack + nArt,
		flip:     p.Sense == Maximize,
	}
	t.rows = make([][]float64, m)
	t.rhs = make([]float64, m)
	t.basis = make([]int, m)

	slackCol := n
	artCol := t.artStart
	for i, r := range rowsIn {
		t.rows[i] = make([]float64, t.nCols)
		for _, tm := range r.terms {
			t.rows[i][tm.Var] += tm.Coef
		}
		t.rhs[i] = r.rhs
		switch r.rel {
		case LE:
			t.rows[i][slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.rows[i][slackCol] = -1
			slackCol++
			t.rows[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.rows[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}

	// Phase-2 cost vector (minimization sense).
	t.origCost = make([]float64, t.nCols)
	for v, c := range p.Obj {
		if t.flip {
			c = -c
		}
		t.origCost[v] = c
	}
	return t
}

// reducedCosts returns d_j = c_j − c_B·(B⁻¹A)_j for all columns plus the
// current objective value c_B·B⁻¹b.
func (t *tableau) reducedCosts(banArtificials bool) (d []float64, z float64) {
	d = make([]float64, t.nCols)
	copy(d, t.cost)
	for i, bi := range t.basis {
		cb := t.cost[bi]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := range d {
			d[j] -= cb * row[j]
		}
		z += cb * t.rhs[i]
	}
	if banArtificials {
		for j := t.artStart; j < t.nCols; j++ {
			d[j] = 0 // never re-enter
		}
	}
	return d, z
}

// pivot performs a pivot on (row r, column c), updating the tableau and
// the reduced-cost vector d in place.
func (t *tableau) pivot(r, c int, d []float64) {
	piv := t.rows[r][c]
	inv := 1 / piv
	row := t.rows[r]
	for j := range row {
		row[j] *= inv
	}
	t.rhs[r] *= inv
	row[c] = 1 // kill roundoff
	for i := range t.rows {
		if i == r {
			continue
		}
		f := t.rows[i][c]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := range ri {
			ri[j] -= f * row[j]
		}
		ri[c] = 0
		t.rhs[i] -= f * t.rhs[r]
		if t.rhs[i] < 0 && t.rhs[i] > -feasTol {
			t.rhs[i] = 0
		}
	}
	f := d[c]
	if f != 0 {
		for j := range d {
			d[j] -= f * row[j]
		}
		d[c] = 0
	}
	t.basis[r] = c
	t.iters++
}

// iterate runs simplex pivots until optimality, unboundedness, context
// cancellation, or the iteration limit, for the current cost vector.
func (t *tableau) iterate(ctx context.Context, maxIter int, banArtificials bool) (Status, error) {
	d, _ := t.reducedCosts(banArtificials)
	for {
		if t.iters >= maxIter {
			return IterLimit, nil
		}
		if t.iters&ctxCheckMask == 0 {
			if err := cancel.Check(ctx, "dense simplex"); err != nil {
				return IterLimit, err
			}
		}
		bland := t.iters >= blandAfter
		// Entering column.
		enter := -1
		best := -feasTol
		for j := 0; j < t.nCols; j++ {
			if banArtificials && j >= t.artStart {
				break
			}
			if d[j] < best {
				if bland {
					enter = j
					break
				}
				best = d[j]
				enter = j
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test; ties broken by smallest basis index (Bland-safe).
		leave := -1
		var minRatio float64
		for i := range t.rows {
			a := t.rows[i][enter]
			if a <= feasTol {
				continue
			}
			ratio := t.rhs[i] / a
			if leave < 0 || ratio < minRatio-feasTol ||
				(ratio < minRatio+feasTol && t.basis[i] < t.basis[leave]) {
				leave = i
				minRatio = ratio
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		t.pivot(leave, enter, d)
	}
}

// solve runs the two phases and extracts the solution.
func (t *tableau) solve(ctx context.Context, maxIter int) (*Solution, error) {
	// Phase 1: minimize the sum of artificials (skip if none are basic).
	needPhase1 := false
	for _, b := range t.basis {
		if b >= t.artStart {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		t.cost = make([]float64, t.nCols)
		for j := t.artStart; j < t.nCols; j++ {
			t.cost[j] = 1
		}
		status, err := t.iterate(ctx, maxIter, false)
		if err != nil {
			return nil, err
		}
		if status == IterLimit {
			return &Solution{Status: IterLimit, Iterations: t.iters}, nil
		}
		if status == Unbounded {
			return nil, fmt.Errorf("lp: dense: phase 1 unbounded (internal error)")
		}
		_, z := t.reducedCosts(false)
		if z > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: t.iters}, nil
		}
		if err := t.expelArtificials(); err != nil {
			return nil, err
		}
	}

	// Phase 2.
	t.cost = t.origCost
	status, err := t.iterate(ctx, maxIter, true)
	if err != nil {
		return nil, err
	}
	switch status {
	case IterLimit:
		return &Solution{Status: IterLimit, Iterations: t.iters}, nil
	case Unbounded:
		return &Solution{Status: Unbounded, Iterations: t.iters}, nil
	}
	return t.extract(), nil
}

// expelArtificials pivots basic artificial variables (necessarily at zero
// after a feasible phase 1) out of the basis; rows that cannot be pivoted
// are redundant and are zeroed out.
func (t *tableau) expelArtificials() error {
	for i := range t.basis {
		if t.basis[i] < t.artStart {
			continue
		}
		if t.rhs[i] > 1e-7 {
			return fmt.Errorf("lp: dense: artificial basic at %g after feasible phase 1", t.rhs[i])
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.rows[i][j]) > 1e-7 {
				d := make([]float64, t.nCols) // dummy reduced costs
				t.pivot(i, j, d)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: clear it so it can never constrain again.
			for j := range t.rows[i] {
				t.rows[i][j] = 0
			}
			t.rows[i][t.basis[i]] = 1
			t.rhs[i] = 0
		}
	}
	return nil
}

func (t *tableau) extract() *Solution {
	x := make([]float64, t.nStruct)
	for i, b := range t.basis {
		if b < t.nStruct {
			x[b] = t.rhs[i]
		}
	}
	obj := 0.0
	for v := 0; v < t.nStruct; v++ {
		obj += t.origCost[v] * x[v]
	}
	if t.flip {
		obj = -obj
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: t.iters}
}

// DenseSize reports the standard-form dimensions Dense would use for p:
// the number of simplex columns (variables incl. slack/surplus/artificial)
// and rows (constraints incl. materialized bounds). This feeds the paper's
// "v and c" LP-size statistics. It mirrors newTableau's accounting
// arithmetically — including the sign normalization that turns a
// negative-RHS row's relation around — without building the tableau, so
// the per-stage statistics cost no allocation on the engine's hot path.
func DenseSize(p *Problem) (vars, cons int) {
	if p.Validate() != nil {
		return 0, 0
	}
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
	nBounds := 0
	for _, u := range p.Upper {
		if !math.IsInf(u, 1) {
			nBounds++ // materialized as a ≤ row with slack (u ≥ 0 by Validate)
		}
	}
	cons = len(p.Cons) + nBounds
	vars = p.NumVars() + nSlack + nBounds + nArt
	return vars, cons
}
