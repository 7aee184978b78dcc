// Package geom provides the small set of 2-D primitives the mesh
// generator needs: points, orientation and in-circumcircle predicates.
// The predicates are plain float64 determinants — adequate because the
// generators jitter their input points away from degenerate (collinear /
// cocircular) configurations.
package geom

import "math"

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Sub returns p − q as a vector-point.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Orient returns twice the signed area of triangle abc: positive if abc is
// counterclockwise, negative if clockwise, ~0 if collinear.
func Orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// InCircumcircle reports whether p lies strictly inside the circumcircle
// of the counterclockwise triangle abc.
func InCircumcircle(a, b, c, p Point) bool {
	ax, ay := a.X-p.X, a.Y-p.Y
	bx, by := b.X-p.X, b.Y-p.Y
	cx, cy := c.X-p.X, c.Y-p.Y
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 0
}

// Centroid returns the centroid of triangle abc.
func Centroid(a, b, c Point) Point {
	return Point{(a.X + b.X + c.X) / 3, (a.Y + b.Y + c.Y) / 3}
}
