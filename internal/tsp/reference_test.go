package tsp

import "repro/internal/geom"

// The quadratic reference the kernel tests compare against. Production
// runs only the neighbor-list TwoOpt.

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
