package la

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cancel"
)

// Operator applies a symmetric linear map: y = A·x. Implementations must
// not retain x or y.
type Operator func(x, y []float64)

// LanczosResult holds the Krylov factorization A·V ≈ V·T produced by
// Lanczos: T is symmetric tridiagonal with diagonal Alpha and subdiagonal
// Beta, and V holds the orthonormal Lanczos basis (V[j] is the j-th basis
// vector of length n).
type LanczosResult struct {
	Alpha []float64
	Beta  []float64
	V     [][]float64
}

// Lanczos runs at most maxSteps steps of the Lanczos iteration on the
// symmetric operator op over R^n, with full reorthogonalization (numerical
// stability beats speed at the problem sizes the partitioner needs).
//
// The iteration starts from start when non-nil, otherwise from a random
// vector drawn from rng. Every basis vector is kept orthogonal to the
// vectors in deflate (each must have unit norm); passing the normalized
// all-ones vector deflates the trivial null space of a graph Laplacian so
// the smallest Ritz pair approximates the Fiedler pair.
//
// The iteration stops early at an invariant subspace: beta ≤ 1e-12 times
// the largest |α_j| + β_{j−1} + β_j seen so far, a bound on ‖T‖, so the
// stop does not depend on the operator's scale. ctx is polled once per
// step; a done ctx aborts with an error matching cancel.ErrCanceled.
func Lanczos(ctx context.Context, op Operator, n, maxSteps int, start []float64, deflate [][]float64, rng *rand.Rand) (*LanczosResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("la: lanczos: n=%d", n)
	}
	if maxSteps > n {
		maxSteps = n
	}
	if maxSteps <= 0 {
		return nil, fmt.Errorf("la: lanczos: maxSteps=%d", maxSteps)
	}
	v := make([]float64, n)
	if start != nil {
		if len(start) != n {
			return nil, fmt.Errorf("la: lanczos: len(start)=%d, want %d", len(start), n)
		}
		copy(v, start)
	} else {
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		for i := range v {
			v[i] = rng.Float64() - 0.5
		}
	}
	for _, q := range deflate {
		OrthogonalizeAgainst(v, q)
	}
	if Normalize(v) == 0 {
		return nil, fmt.Errorf("la: lanczos: start vector lies in the deflated subspace")
	}

	res := &LanczosResult{}
	w := make([]float64, n)
	var tNorm float64
	for j := 0; j < maxSteps; j++ {
		if err := cancel.Check(ctx, "lanczos"); err != nil {
			return nil, err
		}
		vj := append([]float64(nil), v...)
		res.V = append(res.V, vj)
		op(vj, w)
		alpha := Dot(vj, w)
		res.Alpha = append(res.Alpha, alpha)
		// w <- w - alpha v_j - beta_{j-1} v_{j-1}; then full reorthogonalization.
		Axpy(-alpha, vj, w)
		var betaPrev float64
		if j > 0 {
			betaPrev = res.Beta[j-1]
			Axpy(-betaPrev, res.V[j-1], w)
		}
		for _, q := range deflate {
			OrthogonalizeAgainst(w, q)
		}
		gramSchmidt(w, res.V)
		beta := Norm2(w)
		if j == maxSteps-1 {
			break
		}
		tNorm = max(tNorm, math.Abs(alpha)+betaPrev+beta)
		if beta <= 1e-12*tNorm {
			break // invariant subspace reached
		}
		res.Beta = append(res.Beta, beta)
		copy(v, w)
		Scale(1/beta, v)
	}
	return res, nil
}

// gramSchmidt is full double reorthogonalization: two passes of modified
// Gram–Schmidt of w against the unit vectors qs (at least one), w −=
// (q·w)·q for each q in turn. Each step's update sweep also yields the
// next step's dot (axpyDot), so a step reads w once, and the result is
// the separate Dot/Axpy steps' bit for bit.
func gramSchmidt(w []float64, qs [][]float64) {
	steps := 2 * len(qs)
	d := Dot(qs[0], w)
	for k := 1; k < steps; k++ {
		d = axpyDot(-d, qs[(k-1)%len(qs)], w, qs[k%len(qs)])
	}
	Axpy(-d, qs[(steps-1)%len(qs)], w)
}

// SmallestRitzPair diagonalizes the tridiagonal factor and returns the
// smallest Ritz value with its Ritz vector mapped back to R^n at unit
// norm. Only that vector is formed: O(n·k) for a k-step factorization,
// where mapping every Ritz vector back would cost O(n·k²).
func (r *LanczosResult) SmallestRitzPair() (val float64, vec []float64, err error) {
	if len(r.Alpha) == 0 {
		return 0, nil, fmt.Errorf("la: lanczos: empty factorization")
	}
	tVals, tVecs, err := SymTridEigen(r.Alpha, r.Beta, true)
	if err != nil {
		return 0, nil, err
	}
	vec = make([]float64, len(r.V[0]))
	for i, c := range tVecs[0] {
		Axpy(c, r.V[i], vec)
	}
	Normalize(vec)
	return tVals[0], vec, nil
}
