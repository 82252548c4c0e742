// Package assign solves the linear assignment problem (minimum-cost
// bipartite perfect matching) with the Hungarian algorithm in O(n^3).
// The K-EDF baseline uses it to assign each group of K sensors to the K
// chargers with minimum total travel; it replaces the exhaustive O(K!)
// search and removes any practical limit on K.
package assign

import (
	"fmt"
	"math"
)

// Hungarian solves min-cost assignment on an r x c cost matrix, r <= c:
// every row is assigned a distinct column. It returns the column chosen
// for each row and the total cost. Costs must be finite: with an
// infinite cost the dual updates stop making progress, so it is rejected
// like NaN rather than looped on.
func Hungarian(cost [][]float64) ([]int, float64, error) {
	r := len(cost)
	if r == 0 {
		return nil, 0, nil
	}
	c := len(cost[0])
	if c < r {
		return nil, 0, fmt.Errorf("assign: %d rows > %d columns", r, c)
	}
	for i := range cost {
		if len(cost[i]) != c {
			return nil, 0, fmt.Errorf("assign: ragged cost matrix at row %d", i)
		}
		for j, v := range cost[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("assign: non-finite cost %v at (%d,%d)", v, i, j)
			}
		}
	}

	// Classic O(n^3) Hungarian with potentials, 1-indexed internals.
	// u[i], v[j] are dual potentials; way[j] is the augmenting-path
	// predecessor; matchCol[j] is the row matched to column j.
	u := make([]float64, r+1)
	v := make([]float64, c+1)
	matchCol := make([]int, c+1)
	way := make([]int, c+1)
	for i := 1; i <= r; i++ {
		matchCol[0] = i
		j0 := 0
		minv := make([]float64, c+1)
		used := make([]bool, c+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := matchCol[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= c; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= c; j++ {
				if used[j] {
					u[matchCol[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if matchCol[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			matchCol[j0] = matchCol[j1]
			j0 = j1
		}
	}

	out := make([]int, r)
	total := 0.0
	for j := 1; j <= c; j++ {
		if matchCol[j] > 0 {
			out[matchCol[j]-1] = j - 1
			total += cost[matchCol[j]-1][j-1]
		}
	}
	return out, total, nil
}
