package la

import (
	"fmt"
	"math/rand"
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
// The iteration stops early at an invariant subspace (beta ≈ 0).
func Lanczos(op Operator, n, maxSteps int, start []float64, deflate [][]float64, rng *rand.Rand) (*LanczosResult, error) {
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
	for j := 0; j < maxSteps; j++ {
		vj := append([]float64(nil), v...)
		res.V = append(res.V, vj)
		op(vj, w)
		alpha := Dot(vj, w)
		res.Alpha = append(res.Alpha, alpha)
		// w <- w - alpha v_j - beta_{j-1} v_{j-1}; then full reorthogonalization.
		Axpy(-alpha, vj, w)
		if j > 0 {
			Axpy(-res.Beta[j-1], res.V[j-1], w)
		}
		for _, q := range deflate {
			OrthogonalizeAgainst(w, q)
		}
		// Two passes of modified Gram–Schmidt against the whole basis.
		for pass := 0; pass < 2; pass++ {
			for _, q := range res.V {
				OrthogonalizeAgainst(w, q)
			}
		}
		beta := Norm2(w)
		if j == maxSteps-1 {
			break
		}
		if beta < 1e-12 {
			break // invariant subspace reached
		}
		res.Beta = append(res.Beta, beta)
		copy(v, w)
		Scale(1/beta, v)
	}
	return res, nil
}

// RitzPairs diagonalizes the tridiagonal factor and returns all Ritz
// values in ascending order together with the Ritz vectors mapped back to
// R^n (vecs[k] approximates the eigenvector for vals[k]).
func (r *LanczosResult) RitzPairs() (vals []float64, vecs [][]float64, err error) {
	k := len(r.Alpha)
	if k == 0 {
		return nil, nil, fmt.Errorf("la: lanczos: empty factorization")
	}
	tVals, tVecs, err := SymTridEigen(r.Alpha, r.Beta, true)
	if err != nil {
		return nil, nil, err
	}
	n := len(r.V[0])
	vecs = make([][]float64, k)
	for j := 0; j < k; j++ {
		y := make([]float64, n)
		for i := 0; i < k; i++ {
			Axpy(tVecs[j][i], r.V[i], y)
		}
		Normalize(y)
		vecs[j] = y
	}
	return tVals, vecs, nil
}
