// Package geom provides the 2-D geometric primitives used throughout the
// charger-scheduling library: points, distance metrics, disks, bounding
// boxes, and a spatial hash grid for fast fixed-radius neighbor queries.
//
// All coordinates are in meters, matching the paper's 100 x 100 m^2
// monitoring field.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D monitoring field, in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is a convenience constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred primitive for radius comparisons.
func DistSq(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Within reports whether q lies within (or exactly on) radius r of p.
func Within(p, q Point, r float64) bool {
	if r < 0 {
		return false
	}
	return DistSq(p, q) <= r*r
}

// Add returns the component-wise sum p + q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the component-wise difference p - q.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by factor f.
func (p Point) Scale(f float64) Point { return Point{X: p.X * f, Y: p.Y * f} }

// Norm returns the Euclidean length of the vector p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Finite reports whether v is neither NaN nor infinite.
func Finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Finite reports whether both coordinates of p are finite.
func (p Point) Finite() bool { return Finite(p.X) && Finite(p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Midpoint returns the midpoint of segment pq.
func Midpoint(p, q Point) Point {
	return Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2}
}

// PathLength returns the total length of the open polyline through pts.
func PathLength(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += Dist(pts[i-1], pts[i])
	}
	return total
}

// ClosedTourLength returns the length of the closed polyline through pts,
// i.e. PathLength plus the closing edge from the last point back to the
// first. A tour with fewer than two points has length zero.
func ClosedTourLength(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	return PathLength(pts) + Dist(pts[len(pts)-1], pts[0])
}
