package tsp

import (
	"slices"
	"sort"

	"repro/internal/geom"
)

// The quadratic references the kernel tests compare against. Production
// runs only the neighbor-list TwoOpt and its grid-built lists.

// TwoOptFull is the exact quadratic 2-opt descent: every vertex pair is a
// candidate exchange, and Order[0] never moves. It is the quality
// reference for TwoOpt.
func TwoOptFull(t *Tour, pts []geom.Point, maxRounds int) int {
	n := len(t.Order)
	if n < 4 {
		return 0
	}
	moves := 0
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		improved := false
		for i := 0; i < n-1; i++ {
			a, b := t.Order[i], t.Order[i+1]
			for j := i + 2; j < n; j++ {
				// Skip the move that would touch the closing edge twice.
				if i == 0 && j == n-1 {
					continue
				}
				c := t.Order[j]
				d := t.Order[(j+1)%n]
				delta := geom.Dist(pts[a], pts[c]) + geom.Dist(pts[b], pts[d]) -
					geom.Dist(pts[a], pts[b]) - geom.Dist(pts[c], pts[d])
				if delta < -1e-12 {
					reverse(t.Order, i+1, j)
					b = t.Order[i+1]
					improved = true
					moves++
				}
			}
		}
		if !improved {
			break
		}
	}
	return moves
}

// reverse reverses order[i..j] inclusive.
func reverse(order []int, i, j int) {
	for i < j {
		order[i], order[j] = order[j], order[i]
		i++
		j--
	}
}

// neighborListsReference is the O(n²) reference for neighborLists: every
// vertex ranks all others by (squared distance, index) and keeps the
// first DefaultNeighborK, each pair either endpoint keeps is an edge, and
// each row is sorted by (squared distance from its vertex, index).
func neighborListsReference(pts []geom.Point) ([]int32, []int32) {
	n := len(pts)
	rows := make([][]int32, n)
	for u := range n {
		others := make([]int32, 0, n-1)
		for v := range n {
			if v != u {
				others = append(others, int32(v))
			}
		}
		sort.Slice(others, func(i, j int) bool { return refLess(pts, u, others[i], others[j]) })
		for _, v := range others[:min(DefaultNeighborK, len(others))] {
			if !slices.Contains(rows[u], v) {
				rows[u] = append(rows[u], v)
			}
			if !slices.Contains(rows[v], int32(u)) {
				rows[v] = append(rows[v], int32(u))
			}
		}
	}
	off := make([]int32, n+1)
	var adj []int32
	for u, row := range rows {
		sort.Slice(row, func(i, j int) bool { return refLess(pts, u, row[i], row[j]) })
		adj = append(adj, row...)
		off[u+1] = int32(len(adj))
	}
	return off, adj
}

// refLess orders a and b by (squared distance from pts[u], index).
func refLess(pts []geom.Point, u int, a, b int32) bool {
	da, db := geom.DistSq(pts[u], pts[a]), geom.DistSq(pts[u], pts[b])
	return da < db || (da == db && a < b)
}
