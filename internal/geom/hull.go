package geom

import (
	"cmp"
	"slices"
)

// ConvexHull returns the convex hull of pts in counter-clockwise order
// (Andrew's monotone chain, O(n log n)). Collinear boundary points are
// dropped. Degenerate inputs return what they can: fewer than three
// distinct points return those points.
func ConvexHull(pts []Point) []Point {
	n := len(pts)
	if n == 0 {
		return nil
	}
	sorted := append([]Point(nil), pts...)
	slices.SortFunc(sorted, func(a, b Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	})
	// Dedupe.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		return uniq
	}
	cross := func(o, a, b Point) float64 {
		return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
	}
	var lower, upper []Point
	for _, p := range uniq {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(uniq) - 1; i >= 0; i-- {
		p := uniq[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	return hull
}

// HullPerimeter returns the perimeter of the convex hull of pts. Any
// closed tour visiting all of pts is at least this long (the hull is the
// shortest closed curve enclosing the set), which makes it a TSP travel
// lower bound.
func HullPerimeter(pts []Point) float64 {
	hull := ConvexHull(pts)
	if len(hull) < 2 {
		return 0
	}
	if len(hull) == 2 {
		return 2 * Dist(hull[0], hull[1]) // out and back
	}
	return ClosedTourLength(hull)
}
