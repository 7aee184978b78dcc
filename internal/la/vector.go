// Package la implements the small dense linear-algebra kernel set needed
// by the spectral partitioner: vector primitives, a cyclic Jacobi
// eigensolver for dense symmetric matrices (used as a test oracle and for
// tiny systems), the implicit-shift QL iteration for symmetric tridiagonal
// matrices, and a Lanczos iteration with full reorthogonalization.
//
// Every kernel runs on the calling goroutine. RSB, the one caller, runs
// once per from-scratch partition and otherwise only on the coarsest
// V-cycle graph, which coarsening keeps at max(64, 16·P) vertices.
// Everything is stdlib-only and allocation-conscious: hot-path routines
// accept destination slices.
//
// Full reorthogonalization is a Lanczos run's cost: two sweeps against
// the whole basis per step, O(n·k²) for k steps. Each Gram–Schmidt step
// is one fused sweep (axpyDot: the update and the next step's dot) in
// laBlock's association, so the basis is bit for bit what separate Dot
// and Axpy sweeps build. SmallestRitzPair maps back one vector, O(n·k).
package la

import "math"

// laBlock is the fixed reduction block: Dot, axpyDot and Norm2 fold
// per-block partials in ascending block order. The association is part
// of the output, not a tuning knob: RSB labels on graphs over laBlock
// vertices (the benchmark meshes' and the grid's set-up partitions)
// depend on it bit for bit, and TestRSBLabelsLocked pins them. Vectors
// no longer than one block reduce exactly as a straight loop.
const laBlock = 4096

// Dot returns the inner product of x and y. The slices must have equal
// length. The sum folds fixed laBlock-sized partials in ascending order
// (see laBlock).
func Dot(x, y []float64) float64 {
	var s float64
	for lo := 0; lo < len(x); lo += laBlock {
		s += dotRange(x, y, lo, min(lo+laBlock, len(x)))
	}
	return s
}

// dotRange is the per-block partial of Dot over [lo, hi).
func dotRange(x, y []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// large components. Like Dot, it folds per-block (scale, ssq) partials
// in ascending block order via norm2Join (see laBlock).
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for lo := 0; lo < len(x); lo += laBlock {
		s, q := norm2Range(x, lo, min(lo+laBlock, len(x)))
		scale, ssq = norm2Join(scale, ssq, s, q)
	}
	return scale * math.Sqrt(ssq)
}

// norm2Range runs the classic overflow-guarded (scale, ssq) recurrence
// over x[lo:hi], starting from the identity (0, 1).
func norm2Range(x []float64, lo, hi int) (scale, ssq float64) {
	scale, ssq = 0, 1
	for i := lo; i < hi; i++ {
		v := x[i]
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale, ssq
}

// norm2Join merges two (scale, ssq) partials. The identity is (0, 1).
func norm2Join(s1, q1, s2, q2 float64) (float64, float64) {
	if s2 == 0 {
		return s1, q1
	}
	if s1 == 0 {
		return s2, q2
	}
	if s1 >= s2 {
		r := s2 / s1
		return s1, q1 + q2*r*r
	}
	r := s1 / s2
	return s2, q2 + q1*r*r
}

// Normalize scales x to unit Euclidean norm and returns the original norm.
// A zero vector is left unchanged.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n > 0 {
		Scale(1/n, x)
	}
	return n
}

// axpyDot computes y += a*x and returns Dot(z, y) of the updated y in
// the same sweep. Each y[i] is rounded as Axpy rounds it and the dot
// keeps Dot's association (see laBlock), so the result is Axpy followed
// by Dot bit for bit.
func axpyDot(a float64, x, y, z []float64) float64 {
	var s float64
	for lo := 0; lo < len(x); lo += laBlock {
		hi := min(lo+laBlock, len(x))
		xb, yb, zb := x[lo:hi], y[lo:hi], z[lo:hi]
		var p float64
		for i, v := range xb {
			w := yb[i] + a*v
			yb[i] = w
			p += zb[i] * w
		}
		s += p
	}
	return s
}

// OrthogonalizeAgainst removes from x its component along the unit vector
// q (modified Gram–Schmidt step): x -= (q·x) q.
func OrthogonalizeAgainst(x, q []float64) {
	Axpy(-Dot(q, x), q, x)
}
