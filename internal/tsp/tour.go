// Package tsp builds traveling-salesman tours over Euclidean point sets:
// one construction, MST-doubling (at most twice the MST's weight, so a
// 2-approximation), and one improvement, the neighbor-list 2-opt descent.
// These tours are the input to min-max tour splitting in package ktour.
package tsp

import (
	"fmt"

	"repro/internal/geom"
)

// Tour is a cyclic permutation of point indices; Order[0] is conventionally
// the depot/start vertex. The closing edge from the last vertex back to
// Order[0] is implicit.
type Tour struct {
	Order []int
}

// Length returns the total Euclidean length of the closed tour over pts.
func (t Tour) Length(pts []geom.Point) float64 {
	if len(t.Order) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(t.Order); i++ {
		total += geom.Dist(pts[t.Order[i-1]], pts[t.Order[i]])
	}
	total += geom.Dist(pts[t.Order[len(t.Order)-1]], pts[t.Order[0]])
	return total
}

// Validate checks that t is a permutation of 0..n-1. It returns a
// descriptive error otherwise.
func (t Tour) Validate(n int) error {
	if len(t.Order) != n {
		return fmt.Errorf("tsp: tour has %d vertices, want %d", len(t.Order), n)
	}
	seen := make([]bool, n)
	for _, v := range t.Order {
		if v < 0 || v >= n {
			return fmt.Errorf("tsp: vertex %d out of range [0,%d)", v, n)
		}
		if seen[v] {
			return fmt.Errorf("tsp: vertex %d repeated", v)
		}
		seen[v] = true
	}
	return nil
}
