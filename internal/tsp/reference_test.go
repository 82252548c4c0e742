package tsp

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/mst"
)

// The quadratic references the kernel tests compare against. Production
// runs only the neighbor-list TwoOpt and greedyMatchingSparse.

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

// greedyMatching pairs up the given vertices by repeatedly taking the
// shortest remaining edge between two unmatched vertices. len(odd) must be
// even (always true for odd-degree vertices of a graph).
func greedyMatching(pts []geom.Point, odd []int) [][2]int {
	type cand struct {
		i, j int // indices into odd
		d    float64
	}
	var cands []cand
	for i := 0; i < len(odd); i++ {
		for j := i + 1; j < len(odd); j++ {
			cands = append(cands, cand{i, j, geom.Dist(pts[odd[i]], pts[odd[j]])})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	matched := make([]bool, len(odd))
	var out [][2]int
	for _, c := range cands {
		if matched[c.i] || matched[c.j] {
			continue
		}
		matched[c.i], matched[c.j] = true, true
		out = append(out, [2]int{odd[c.i], odd[c.j]})
	}
	return out
}

// christofidesGreedy is Christofides with the shortest-edge-first
// greedyMatching on the odd-degree MST vertices in place of the
// nearest-available greedyMatchingSparse: the tour the production
// construction is compared against.
func christofidesGreedy(pts []geom.Point, start int) Tour {
	n := len(pts)
	degree := make([]int, n)
	var edges [][2]int
	addEdge := func(u, v int) {
		edges = append(edges, [2]int{u, v})
		degree[u]++
		degree[v]++
	}
	for v, p := range mst.EuclideanSparse(pts, start).Parent {
		if p >= 0 {
			addEdge(v, p)
		}
	}
	var odd []int
	for v := 0; v < n; v++ {
		if degree[v]%2 == 1 {
			odd = append(odd, v)
		}
	}
	for _, e := range greedyMatching(pts, odd) {
		addEdge(e[0], e[1])
	}
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for _, v := range eulerCircuit(n, degree, edges, start) {
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	return Tour{Order: order}
}
