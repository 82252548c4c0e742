// Package tsp builds traveling-salesman tours over Euclidean point sets:
// one construction, MST-doubling (at most twice the MST's weight, so a
// 2-approximation), and one improvement, the neighbor-list 2-opt descent.
// These tours are the input to min-max tour splitting in package ktour.
package tsp

// Tour is a cyclic permutation of point indices; Order[0] is conventionally
// the depot/start vertex. The closing edge from the last vertex back to
// Order[0] is implicit.
type Tour struct {
	Order []int
}
