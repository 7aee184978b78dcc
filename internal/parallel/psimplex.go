// Package parallel implements the distributed-memory version of the
// incremental partitioner — the paper's actual contribution claim ("all
// the steps used by our method are inherently parallel"). It runs SPMD
// over the comm substrate: every rank executes the same control flow over
// replicated metadata, owns a subset of partitions (and of LP columns),
// is charged simulated compute only for work on what it owns, and
// exchanges exactly the data a real distributed implementation would
// (phase-1 claims, δ and b(i,j) rows, simplex pivot columns, migrated
// vertex lists and the cut allreduce).
package parallel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/comm"
	"repro/internal/lp"
)

// pivotTol mirrors the sequential solvers' feasibility tolerance.
const pivotTol = 1e-9

// SolveLP solves prob with a column-distributed dense two-phase simplex:
// columns are dealt cyclically to ranks; each pivot selects the entering
// column with a global argmin, broadcasts that column, and updates local
// columns only. All ranks must call with an identical problem and all
// receive the full solution.
//
// Per pivot, a rank does O(m · ownedCols) flops and the network carries
// one m-length column broadcast — the parallelization the paper sketches
// for its dominant cost.
func SolveLP(ctx context.Context, c *comm.Comm, prob *lp.Problem) (*lp.Solution, error) {
	std, err := lp.Standardize(prob)
	if err != nil {
		return nil, err
	}
	s := &psimplex{c: c, std: std, ctx: ctx}
	return s.solve()
}

type psimplex struct {
	c   *comm.Comm
	std *lp.Standard

	// cols holds this rank's owned columns, maintained as B⁻¹A_j.
	cols map[int][]float64
	// d holds reduced costs for owned columns.
	d map[int]float64
	// Replicated state.
	rhs   []float64
	basis []int
	cost  []float64 // current phase's cost
	iters int
	ctx   context.Context
}

func (s *psimplex) owned(j int) bool { return j%s.c.Size() == s.c.Rank() }

func (s *psimplex) solve() (*lp.Solution, error) {
	std := s.std
	m := std.M()
	s.rhs = append([]float64(nil), std.RHS...)
	s.basis = append([]int(nil), std.Basis...)
	s.cols = make(map[int][]float64)
	for j := 0; j < std.N(); j++ {
		if s.owned(j) {
			s.cols[j] = append([]float64(nil), std.Cols[j]...)
		}
	}

	needPhase1 := false
	for _, b := range s.basis {
		if b >= std.ArtStart {
			needPhase1 = true
			break
		}
	}
	const maxIter = 200000
	if needPhase1 {
		s.cost = make([]float64, std.N())
		for j := std.ArtStart; j < std.N(); j++ {
			s.cost[j] = 1
		}
		s.resetReducedCosts(false)
		status, err := s.iterate(maxIter)
		if err != nil {
			return nil, err
		}
		if status == lp.IterLimit {
			return &lp.Solution{Status: lp.IterLimit, Iterations: s.iters}, nil
		}
		if status == lp.Unbounded {
			return nil, fmt.Errorf("parallel: simplex phase 1 unbounded")
		}
		// Phase-1 objective from replicated state.
		var z float64
		for i, b := range s.basis {
			if b >= std.ArtStart {
				z += s.rhs[i]
			}
		}
		if z > 1e-7 {
			return &lp.Solution{Status: lp.Infeasible, Iterations: s.iters}, nil
		}
		if err := s.expelArtificials(); err != nil {
			return nil, err
		}
	}

	s.cost = append([]float64(nil), std.Cost...)
	s.resetReducedCosts(true)
	status, err := s.iterate(maxIter)
	if err != nil {
		return nil, err
	}
	switch status {
	case lp.IterLimit:
		return &lp.Solution{Status: lp.IterLimit, Iterations: s.iters}, nil
	case lp.Unbounded:
		return &lp.Solution{Status: lp.Unbounded, Iterations: s.iters}, nil
	}

	// Extract from replicated basis/rhs.
	x := make([]float64, std.NStruct)
	for i, b := range s.basis {
		if b < std.NStruct {
			x[b] = s.rhs[i]
		}
	}
	_ = m
	return &lp.Solution{
		Status:     lp.Optimal,
		X:          x,
		Objective:  std.Objective(x),
		Iterations: s.iters,
	}, nil
}

// resetReducedCosts recomputes d_j for owned columns from the current
// basis: d_j = c_j − Σ_i c_B(i)·col_j[i].
func (s *psimplex) resetReducedCosts(banArtificials bool) {
	s.d = make(map[int]float64, len(s.cols))
	work := 0
	for j, col := range s.cols {
		if banArtificials && j >= s.std.ArtStart {
			continue
		}
		d := s.cost[j]
		for i, b := range s.basis {
			cb := s.cost[b]
			if cb != 0 {
				d -= cb * col[i]
			}
		}
		s.d[j] = d
		work += len(col)
	}
	s.c.Advance(float64(work))
}

// iterate performs simplex pivots until optimal/unbounded/limit. After
// blandAfter pivots it switches from Dantzig to Bland's rule (smallest
// improving index) to guarantee termination on degenerate problems; both
// rules are deterministic across rank counts because ties break on the
// global column index.
func (s *psimplex) iterate(maxIter int) (lp.Status, error) {
	const blandAfter = 5000
	m := s.std.M()
	for {
		if s.iters >= maxIter {
			return lp.IterLimit, nil
		}
		if s.iters&255 == 0 {
			// Every rank polls the same context at the same pivot count, so
			// an abort is SPMD-consistent: all ranks leave together.
			if err := cancel.Check(s.ctx, "parallel simplex"); err != nil {
				return lp.IterLimit, err
			}
		}
		bland := s.iters >= blandAfter
		// Local candidate among owned columns.
		bestVal := math.Inf(1)
		bestCol := math.MaxInt32
		for j, dj := range s.d {
			if dj >= -pivotTol || s.isBasic(j) {
				continue
			}
			var key float64
			if bland {
				key = float64(j) // smallest improving index wins
			} else {
				key = dj // most negative reduced cost wins
			}
			if key < bestVal || (key == bestVal && j < bestCol) {
				bestVal, bestCol = key, j
			}
		}
		s.c.Advance(float64(len(s.d)))
		val, enter, err := s.c.ArgminIndexed(bestVal, bestCol)
		if err != nil {
			return 0, err
		}
		if math.IsInf(val, 1) {
			return lp.Optimal, nil
		}

		// Owner broadcasts the entering column and its reduced cost.
		owner := enter % s.c.Size()
		var payload any
		if s.c.Rank() == owner {
			buf := make([]float64, m+1)
			copy(buf, s.cols[enter])
			buf[m] = s.d[enter]
			payload = buf
		}
		got, err := s.c.Bcast(owner, payload, 8*(m+1))
		if err != nil {
			return 0, err
		}
		w := got.([]float64)
		dEnter := w[m]

		// Ratio test on replicated state (identical on all ranks).
		leave := -1
		var minRatio float64
		for i := 0; i < m; i++ {
			a := w[i]
			if a <= pivotTol {
				continue
			}
			ratio := s.rhs[i] / a
			if leave < 0 || ratio < minRatio-pivotTol ||
				(ratio < minRatio+pivotTol && s.basis[i] < s.basis[leave]) {
				leave = i
				minRatio = ratio
			}
		}
		s.c.Advance(float64(m))
		if leave < 0 {
			return lp.Unbounded, nil
		}
		s.pivot(leave, enter, w[:m], dEnter)
	}
}

func (s *psimplex) isBasic(j int) bool {
	for _, b := range s.basis {
		if b == j {
			return true
		}
	}
	return false
}

// pivot applies the column-wise tableau update for pivot (r, enter) where
// w = B⁻¹A_enter; every rank updates its owned columns plus the
// replicated rhs/basis.
//
// The simulated cost charged is the DENSE per-pivot cost — every owned
// column, all m rows — because that is the implementation the paper ran
// and parallelized ("a dense version of simplex algorithm", cost O(v·c)
// per iteration). The Go code still skips zero columns for real speed;
// only the clock follows the paper's dense profile.
func (s *psimplex) pivot(r, enter int, w []float64, dEnter float64) {
	piv := w[r]
	work := 0
	for j, col := range s.cols {
		work += len(col)
		cr := col[r] / piv
		if cr == 0 {
			continue
		}
		col[r] = cr
		for i := range col {
			if i != r && w[i] != 0 {
				col[i] -= w[i] * cr
			}
		}
		if dj, ok := s.d[j]; ok {
			s.d[j] = dj - dEnter*cr
		}
	}
	// Owner's entering column becomes a unit vector exactly.
	if s.owned(enter) {
		col := s.cols[enter]
		for i := range col {
			col[i] = 0
		}
		col[r] = 1
		s.d[enter] = 0
	}
	// Replicated RHS update.
	rr := s.rhs[r] / piv
	s.rhs[r] = rr
	for i := range s.rhs {
		if i != r && w[i] != 0 {
			s.rhs[i] -= w[i] * rr
			if s.rhs[i] < 0 && s.rhs[i] > -1e-9 {
				s.rhs[i] = 0
			}
		}
	}
	s.basis[r] = enter
	s.iters++
	s.c.Advance(float64(work + len(s.rhs)))
}

// expelArtificials removes basic artificials via zero-movement pivots
// where a non-artificial pivot column exists; inert rows are left (their
// B⁻¹A row is zero on all non-artificial columns, so they can never
// change — see the sequential solvers for the argument).
func (s *psimplex) expelArtificials() error {
	for i, b := range s.basis {
		if b < s.std.ArtStart {
			continue
		}
		// Global search for the smallest-index non-artificial, nonbasic
		// column with a nonzero entry in row i.
		bestVal := math.Inf(1)
		bestCol := math.MaxInt32
		for j, col := range s.cols {
			if j >= s.std.ArtStart || s.isBasic(j) {
				continue
			}
			if math.Abs(col[i]) > 1e-7 {
				if float64(j) < bestVal {
					bestVal = float64(j)
					bestCol = j
				}
			}
		}
		_, enter, err := s.c.ArgminIndexed(bestVal, bestCol)
		if err != nil {
			return err
		}
		if enter == math.MaxInt32 {
			continue // inert redundant row
		}
		owner := enter % s.c.Size()
		var payload any
		if s.c.Rank() == owner {
			m := s.std.M()
			buf := make([]float64, m+1)
			copy(buf, s.cols[enter])
			if d, ok := s.d[enter]; ok {
				buf[m] = d
			}
			payload = buf
		}
		got, err := s.c.Bcast(owner, payload, 8*(s.std.M()+1))
		if err != nil {
			return err
		}
		w := got.([]float64)
		s.pivot(i, enter, w[:s.std.M()], w[s.std.M()])
	}
	return nil
}
