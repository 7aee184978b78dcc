// Package harness is the repository benchmark: six recorded workloads
// replayed in identical passes, fastest-pass timing, output checks, and a
// traced pass whose per-layer spans are taken from outside the program.
// See ../README.md for the metric and workload tables.
package harness

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified. It returns
// 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// minInto folds one pass's per-op samples into the running per-op minima:
// best[i] = min(best[i], pass[i]). A nil best adopts a copy of pass. Host
// disturbance only ever adds time, so the minimum over identical passes is
// the steadiest estimate of an op's cost.
func minInto(best, pass []float64) []float64 {
	if best == nil {
		return append([]float64(nil), pass...)
	}
	for i, x := range pass {
		if x < best[i] {
			best[i] = x
		}
	}
	return best
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// -selfcheck reports the same spread the acceptance procedure takes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of the 3 cut points over n+1 gaps
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// Median is the sample median.
func Median(xs []float64) float64 { return median(xs) }

// Spread is the distance between the first and the third quartile as a
// share of the median — the steadiness measure the acceptance procedure
// holds every end-to-end metric's runs to.
func Spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
