package ktour

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mst"
)

// TestGrandTourWithinTwiceMST pins the bound the published
// 5-approximation assumes of its grand tour: the MST-doubling tour is at
// most twice the MST's weight, and the 2-opt descent after it never
// lengthens a tour. The relative tolerance absorbs rounding: on collinear
// input the tour is exactly twice the MST, and the two sums round apart.
func TestGrandTourWithinTwiceMST(t *testing.T) {
	a, b := 0.1, 0.2 // variables: Go folds the constant sum to exactly 0.3
	const kmSpacing = 5047.285714285714
	shapes := []struct {
		name  string
		depot geom.Point
		node  func(rng *rand.Rand, i, n int) geom.Point
	}{
		{"random", geom.Pt(50, 50), func(rng *rand.Rand, _, _ int) geom.Point {
			return geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}},
		{"clustered", geom.Pt(50, 50), func(rng *rand.Rand, i, _ int) geom.Point {
			c := float64(i % 5)
			return geom.Pt(20*c+rng.NormFloat64(), 80-15*c+rng.NormFloat64())
		}},
		{"collinear", geom.Pt(0, 7), func(rng *rand.Rand, _, _ int) geom.Point {
			return geom.Pt(rng.Float64()*1000, 7)
		}},
		{"near-collinear", geom.Pt(0, 0.3), func(_ *rand.Rand, i, _ int) geom.Point {
			y := 0.3
			if i%2 == 1 {
				y = a + b
			}
			return geom.Pt(50*float64(i+1), y)
		}},
		{"duplicates", geom.Pt(3, 3), func(rng *rand.Rand, _, _ int) geom.Point {
			return geom.Pt(float64(rng.Intn(4)), float64(rng.Intn(4)))
		}},
		{"lattice-km", geom.Pt(535, 535), func(_ *rand.Rand, i, n int) geom.Point {
			cols := 1 + int(math.Sqrt(float64(n)))
			return geom.Pt(float64(i%cols)*kmSpacing, float64(i/cols)*kmSpacing)
		}},
	}
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 17, 60, 300, 2000} {
			t.Run(fmt.Sprintf("%s/n=%d", sh.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				in := Input{Depot: sh.depot, Nodes: make([]geom.Point, n), Speed: 1, K: 1}
				for i := range in.Nodes {
					in.Nodes[i] = sh.node(rng, i, n)
				}
				order := GrandTourOrder(context.Background(), in)
				checkPermutation(t, order, n)
				tour := []geom.Point{in.Depot}
				for _, v := range order {
					tour = append(tour, in.Nodes[v])
				}
				pts := append([]geom.Point{in.Depot}, in.Nodes...)
				length, bound := geom.ClosedTourLength(tour), 2*mst.EuclideanSparse(pts, 0).Weight
				if length > bound*(1+1e-9) {
					t.Fatalf("grand tour %.9g exceeds twice the MST %.9g (ratio %.12f)", length, bound, length/bound*2)
				}
			})
		}
	}
}

// TestGrandTourOverflowingDistances checks that the grand tour is a
// permutation of the nodes and MinMax a partition of them when pairwise
// distances overflow float64, so every tour time is +Inf.
func TestGrandTourOverflowingDistances(t *testing.T) {
	in := Input{Depot: geom.Pt(-1e308, 0), Nodes: make([]geom.Point, 12), Speed: 1, K: 2}
	for i := range in.Nodes {
		in.Nodes[i] = geom.Pt([]float64{-1e308, 1e308, 1.5e308, -1.5e308}[i%4], float64(i%3)*1e307)
	}
	checkPermutation(t, GrandTourOrder(context.Background(), in), len(in.Nodes))
	sol, err := MinMax(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for _, tour := range sol.Tours {
		all = append(all, tour...)
	}
	checkPermutation(t, all, len(in.Nodes))
}

// checkPermutation fails unless order lists each of the nodes 0..n-1
// exactly once.
func checkPermutation(t *testing.T, order []int, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[v] = true
	}
	if len(order) != n {
		t.Fatalf("order lists %d of %d nodes", len(order), n)
	}
}
