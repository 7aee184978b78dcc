package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOrient(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orient(a, b, Point{0, 1}) <= 0 {
		t.Fatal("counterclockwise should be positive")
	}
	if Orient(a, b, Point{0, -1}) >= 0 {
		t.Fatal("clockwise should be negative")
	}
	if Orient(a, b, Point{2, 0}) != 0 {
		t.Fatal("collinear should be zero")
	}
}

func TestInCircumcircle(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) — counterclockwise.
	a, b, c := Point{1, 0}, Point{0, 1}, Point{-1, 0}
	if !InCircumcircle(a, b, c, Point{0, 0}) {
		t.Fatal("origin is inside")
	}
	if InCircumcircle(a, b, c, Point{2, 2}) {
		t.Fatal("(2,2) is outside")
	}
	if InCircumcircle(a, b, c, Point{0, -1}) {
		t.Fatal("(0,-1) is on the circle, not strictly inside")
	}
}

func TestCentroidAndDist(t *testing.T) {
	c := Centroid(Point{0, 0}, Point{3, 0}, Point{0, 3})
	if c.X != 1 || c.Y != 1 {
		t.Fatalf("centroid = %v, want (1,1)", c)
	}
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("dist = %g, want 5", d)
	}
}

func TestPropertyOrientAntisymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Clamp to a sane range to avoid inf/NaN extremes.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return Orient(a, b, c) == -Orient(b, a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
