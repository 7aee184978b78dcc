package la

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotAxpyScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("dot = %g, want 32", got)
	}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("axpy result %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	if y[0] != 3 || y[2] != 6 {
		t.Fatalf("scale result %v", y)
	}
}

func TestNorm2Stability(t *testing.T) {
	x := []float64{3e150, 4e150}
	if got := Norm2(x); !almostEq(got, 5e150, 1e137) {
		t.Fatalf("norm = %g, want 5e150", got)
	}
	if Norm2(nil) != 0 {
		t.Fatal("norm of empty must be 0")
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{3, 4}
	n := Normalize(x)
	if !almostEq(n, 5, 1e-12) || !almostEq(Norm2(x), 1, 1e-12) {
		t.Fatalf("normalize: n=%g x=%v", n, x)
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("zero vector norm must be 0")
	}
}

func TestOrthogonalize(t *testing.T) {
	q := []float64{1, 0, 0}
	x := []float64{5, 2, 1}
	OrthogonalizeAgainst(x, q)
	if !almostEq(Dot(x, q), 0, 1e-12) {
		t.Fatalf("not orthogonal: %v", x)
	}
}

// TestAxpyDotMatchesReference pins the fused kernel to Axpy followed by
// Dot bit for bit, across the block boundaries.
func TestAxpyDotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, laBlock - 1, laBlock, laBlock + 1, 2*laBlock - 1, 2 * laBlock, 3*laBlock + 1, 20000} {
		x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i], z[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		a := rng.NormFloat64()
		ref := append([]float64(nil), y...)
		Axpy(a, x, ref)
		want := Dot(z, ref)
		if got := axpyDot(a, x, y, z); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: axpyDot = %v, Axpy then Dot = %v", n, got, want)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("n=%d: y[%d] = %v, Axpy gives %v", n, i, y[i], ref[i])
			}
		}
	}
}

// randSym returns a random symmetric n×n matrix.
func randSym(n int, rng *rand.Rand) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i][j], a[j][i] = v, v
		}
	}
	return a
}

func matVec(a [][]float64, x, y []float64) {
	for i := range a {
		var s float64
		for j, v := range a[i] {
			s += v * x[j]
		}
		y[i] = s
	}
}

func TestJacobiDiagonal(t *testing.T) {
	a := [][]float64{{3, 0}, {0, -1}}
	vals, vecs, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], -1, 1e-12) || !almostEq(vals[1], 3, 1e-12) {
		t.Fatalf("vals = %v", vals)
	}
	if len(vecs) != 2 {
		t.Fatal("want 2 eigenvectors")
	}
}

func TestJacobiKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := [][]float64{{2, 1}, {1, 2}}
	vals, vecs, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 1, 1e-10) || !almostEq(vals[1], 3, 1e-10) {
		t.Fatalf("vals = %v", vals)
	}
	// Check A v = λ v.
	for k := 0; k < 2; k++ {
		y := make([]float64, 2)
		matVec(a, vecs[k], y)
		for i := range y {
			if !almostEq(y[i], vals[k]*vecs[k][i], 1e-10) {
				t.Fatalf("residual too large for pair %d", k)
			}
		}
	}
}

func TestJacobiRejectsRagged(t *testing.T) {
	if _, _, err := Jacobi([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix should error")
	}
}

func TestJacobiRandomResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		a := randSym(n, rng)
		vals, vecs, err := Jacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, n)
		for k := 0; k < n; k++ {
			matVec(a, vecs[k], y)
			r := 0.0
			for i := range y {
				d := y[i] - vals[k]*vecs[k][i]
				r += d * d
			}
			if math.Sqrt(r) > 1e-8 {
				t.Fatalf("trial %d pair %d residual %g", trial, k, math.Sqrt(r))
			}
		}
		// Eigenvalues ascending.
		for k := 1; k < n; k++ {
			if vals[k] < vals[k-1]-1e-12 {
				t.Fatalf("vals not ascending: %v", vals)
			}
		}
	}
}

func TestSymTridEigenMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		vals, vecs, err := SymTridEigen(d, e, true)
		if err != nil {
			t.Fatal(err)
		}
		// Build the dense matrix and compare eigenvalues with Jacobi.
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			a[i][i] = d[i]
		}
		for i := 0; i+1 < n; i++ {
			a[i][i+1], a[i+1][i] = e[i], e[i]
		}
		jv, _, err := Jacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if !almostEq(vals[k], jv[k], 1e-8) {
				t.Fatalf("trial %d: QL vals %v vs Jacobi %v", trial, vals, jv)
			}
		}
		// Residual check for eigenvectors.
		y := make([]float64, n)
		for k := 0; k < n; k++ {
			matVec(a, vecs[k], y)
			for i := range y {
				if !almostEq(y[i], vals[k]*vecs[k][i], 1e-7) {
					t.Fatalf("trial %d: eigenvector residual at pair %d", trial, k)
				}
			}
		}
	}
}

func TestSymTridEigenBadInput(t *testing.T) {
	if _, _, err := SymTridEigen([]float64{1, 2}, []float64{}, false); err == nil {
		t.Fatal("mismatched e length should error")
	}
}

func TestSymTridEigenEmptyAndSingle(t *testing.T) {
	if vals, _, err := SymTridEigen(nil, nil, false); err != nil || len(vals) != 0 {
		t.Fatalf("empty: %v %v", vals, err)
	}
	vals, vecs, err := SymTridEigen([]float64{42}, []float64{}, true)
	if err != nil || !almostEq(vals[0], 42, 0) || !almostEq(vecs[0][0]*vecs[0][0], 1, 1e-12) {
		t.Fatalf("single: %v %v %v", vals, vecs, err)
	}
}

func TestLanczosRecoversExtremeEigenpairs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 30
	a := randSym(n, rng)
	op := func(x, y []float64) { matVec(a, x, y) }
	res, err := Lanczos(context.Background(), op, n, n, nil, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	vals, vec := ritz(t, res)
	jv, _, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	// With a full n-step factorization the extreme Ritz values match the
	// true spectrum tightly.
	if !almostEq(vals[0], jv[0], 1e-6) {
		t.Fatalf("smallest: lanczos %g vs jacobi %g", vals[0], jv[0])
	}
	if !almostEq(vals[len(vals)-1], jv[n-1], 1e-6) {
		t.Fatalf("largest: lanczos %g vs jacobi %g", vals[len(vals)-1], jv[n-1])
	}
	// Residual of the smallest Ritz pair.
	y := make([]float64, n)
	matVec(a, vec, y)
	r := 0.0
	for i := range y {
		d := y[i] - vals[0]*vec[i]
		r += d * d
	}
	if math.Sqrt(r) > 1e-5 {
		t.Fatalf("smallest Ritz residual %g", math.Sqrt(r))
	}
}

func TestLanczosDeflation(t *testing.T) {
	// Operator = diag(0, 1, 2, 3); deflating e0 (the 0-eigenvector) makes
	// the smallest Ritz value 1.
	n := 4
	op := func(x, y []float64) {
		for i := range x {
			y[i] = float64(i) * x[i]
		}
	}
	q := make([]float64, n)
	q[0] = 1
	rng := rand.New(rand.NewSource(2))
	res, err := Lanczos(context.Background(), op, n, n, nil, [][]float64{q}, rng)
	if err != nil {
		t.Fatal(err)
	}
	vals, vec := ritz(t, res)
	if !almostEq(vals[0], 1, 1e-8) {
		t.Fatalf("deflated smallest = %g, want 1", vals[0])
	}
	if !almostEq(vec[0], 0, 1e-8) {
		t.Fatalf("deflated eigenvector leaks into deflated space: %v", vec)
	}
}

// ritz returns every Ritz value of res, ascending, from the tridiagonal
// factor alone, and the smallest Ritz vector from SmallestRitzPair,
// whose value must be the first of them.
func ritz(t *testing.T, res *LanczosResult) (vals, vec []float64) {
	t.Helper()
	vals, _, err := SymTridEigen(res.Alpha, res.Beta, false)
	if err != nil {
		t.Fatal(err)
	}
	val, vec, err := res.SmallestRitzPair()
	if err != nil {
		t.Fatal(err)
	}
	if val != vals[0] {
		t.Fatalf("SmallestRitzPair value %g, smallest Ritz value %g", val, vals[0])
	}
	return vals, vec
}

func TestLanczosStartInDeflatedSpace(t *testing.T) {
	n := 3
	op := func(x, y []float64) { copy(y, x) }
	q := []float64{1, 0, 0}
	if _, err := Lanczos(context.Background(), op, n, n, []float64{2, 0, 0}, [][]float64{q}, nil); err == nil {
		t.Fatal("start vector inside deflated space should error")
	}
}

func TestLanczosArgErrors(t *testing.T) {
	op := func(x, y []float64) { copy(y, x) }
	if _, err := Lanczos(context.Background(), op, 0, 3, nil, nil, nil); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := Lanczos(context.Background(), op, 3, 0, nil, nil, nil); err == nil {
		t.Fatal("maxSteps=0 should error")
	}
	if _, err := Lanczos(context.Background(), op, 3, 3, []float64{1}, nil, nil); err == nil {
		t.Fatal("wrong start length should error")
	}
}

func TestPropertyLanczosBasisOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		a := randSym(n, rng)
		op := func(x, y []float64) { matVec(a, x, y) }
		res, err := Lanczos(context.Background(), op, n, n/2+2, nil, nil, rng)
		if err != nil {
			return false
		}
		for i := range res.V {
			for j := range res.V {
				d := Dot(res.V[i], res.V[j])
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(d, want, 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
