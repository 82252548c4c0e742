package mst

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// assertSpanningTree fails the test unless tr is a valid spanning tree of
// n vertices rooted at root: Parent[root] == -1, every other vertex has an
// in-range parent, and every vertex reaches the root (no cycles, no
// forests).
func assertSpanningTree(t *testing.T, tr *Tree, n, root int) {
	t.Helper()
	if tr == nil {
		t.Fatal("nil tree")
	}
	if len(tr.Parent) != n {
		t.Fatalf("tree has %d vertices, want %d", len(tr.Parent), n)
	}
	if tr.Parent[root] != -1 {
		t.Fatalf("Parent[root=%d] = %d, want -1", root, tr.Parent[root])
	}
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		if p := tr.Parent[v]; p < 0 || p >= n {
			t.Fatalf("Parent[%d] = %d out of range", v, p)
		}
		// Walk to the root; more than n hops means a cycle.
		u := v
		for hops := 0; u != root; hops++ {
			if hops > n {
				t.Fatalf("vertex %d does not reach the root (cycle or forest)", v)
			}
			u = tr.Parent[u]
		}
	}
}

// assertWeightEqual asserts the two MST weights agree up to summation
// round-off: both kernels add the exact same n-1 edge weights when the
// MST is unique (and equal-total edge sets otherwise), so any difference
// is float addition order.
func assertWeightEqual(t *testing.T, dense, sparse float64) {
	t.Helper()
	tol := 1e-9 * math.Max(1, math.Abs(dense))
	if math.Abs(dense-sparse) > tol {
		t.Fatalf("weight mismatch: dense=%.17g sparse=%.17g (diff %g)", dense, sparse, dense-sparse)
	}
}

// TestEuclideanSparseOracleRandom is the oracle property test of the
// grid-pruned MST: on random uniform sets its weight must equal the dense
// Prim kernel's exactly (it is the same MST by the cycle/cut-property
// argument in sparse.go), and the result must be a valid spanning tree.
func TestEuclideanSparseOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(400)
		side := 1 + rng.Float64()*1000
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		root := rng.Intn(n)
		dense := Euclidean(pts, root)
		sparse := EuclideanSparse(pts, root)
		assertSpanningTree(t, sparse, n, root)
		assertWeightEqual(t, dense.Weight, sparse.Weight)
	}
}

// TestEuclideanSparseOracleAdversarial pins the degenerate geometries the
// grid heuristics have to survive: collinear sets (zero-height bounding
// box), near-collinear sets (a bounding box whose height is a rounding
// error), duplicate coordinates (zero-length edges), a tight cluster at
// float scale, and far-apart clusters whose candidate graphs are
// disconnected, forcing the Boruvka bridging rounds.
func TestEuclideanSparseOracleAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	cases := map[string]func() []geom.Point{
		"collinear": func() []geom.Point {
			pts := make([]geom.Point, 60)
			for i := range pts {
				pts[i] = geom.Pt(rng.Float64()*500, 0)
			}
			return pts
		},
		"collinear-vertical": func() []geom.Point {
			pts := make([]geom.Point, 40)
			for i := range pts {
				pts[i] = geom.Pt(3, rng.Float64()*90)
			}
			return pts
		},
		"duplicates": func() []geom.Point {
			pts := make([]geom.Point, 0, 50)
			for i := 0; i < 10; i++ {
				p := geom.Pt(rng.Float64()*10, rng.Float64()*10)
				for j := 0; j < 5; j++ {
					pts = append(pts, p)
				}
			}
			return pts
		},
		"all-identical": func() []geom.Point {
			pts := make([]geom.Point, 25)
			for i := range pts {
				pts[i] = geom.Pt(7, -3)
			}
			return pts
		},
		"near-collinear-2":  func() []geom.Point { return nearCollinear(2) },
		"near-collinear-3":  func() []geom.Point { return nearCollinear(3) },
		"near-collinear-60": func() []geom.Point { return nearCollinear(60) },
		"tight-cluster": func() []geom.Point {
			pts := make([]geom.Point, 80)
			for i := range pts {
				pts[i] = geom.Pt(1e6+rng.Float64()*1e-6, 1e6+rng.Float64()*1e-6)
			}
			return pts
		},
		"two-far-clusters": func() []geom.Point {
			// Bounding box is huge relative to the intra-cluster spacing,
			// so the candidate radius ~ sqrt(area/n) exceeds nothing
			// useful within a cluster yet the clusters sit far beyond it:
			// the Boruvka bridge search must connect them.
			pts := make([]geom.Point, 0, 100)
			for i := 0; i < 50; i++ {
				pts = append(pts, geom.Pt(rng.Float64(), rng.Float64()))
			}
			for i := 0; i < 50; i++ {
				pts = append(pts, geom.Pt(1e5+rng.Float64(), 1e5+rng.Float64()))
			}
			return pts
		},
		"many-far-clusters": func() []geom.Point {
			var pts []geom.Point
			for c := 0; c < 8; c++ {
				cx, cy := float64(c)*1e4, float64(c%3)*2e4
				for i := 0; i < 12; i++ {
					pts = append(pts, geom.Pt(cx+rng.Float64(), cy+rng.Float64()))
				}
			}
			return pts
		},
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			pts := gen()
			dense := Euclidean(pts, 0)
			sparse := EuclideanSparse(pts, 0)
			assertSpanningTree(t, sparse, len(pts), 0)
			assertWeightEqual(t, dense.Weight, sparse.Weight)
		})
	}
}

// nearCollinear returns n points 50 apart on the line y = 0.3, point 0
// (a plan's depot) first, with every odd point at y = 0.1+0.2, one ulp
// above 0.3. The bounding box's height is that rounding error, so a grid
// cell sized by area alone collapses to about a micrometre and a ring
// search has to cross tens of millions of empty cells between neighbors.
func nearCollinear(n int) []geom.Point {
	a, b := 0.1, 0.2 // variables: Go folds the constant sum to exactly 0.3
	pts := make([]geom.Point, n)
	for i := range pts {
		y := 0.3
		if i%2 == 1 {
			y = a + b
		}
		pts[i] = geom.Pt(50*float64(i), y)
	}
	return pts
}

// TestEuclideanSparseEdgeCases mirrors the dense kernel's degenerate-input
// contract.
func TestEuclideanSparseEdgeCases(t *testing.T) {
	if EuclideanSparse(nil, 0) != nil {
		t.Error("empty pts should give nil")
	}
	if EuclideanSparse([]geom.Point{geom.Pt(0, 0)}, 1) != nil {
		t.Error("root out of range should give nil")
	}
	if EuclideanSparse([]geom.Point{geom.Pt(0, 0)}, -1) != nil {
		t.Error("negative root should give nil")
	}
	tr := EuclideanSparse([]geom.Point{geom.Pt(3, 3)}, 0)
	if tr == nil || tr.Weight != 0 || tr.Len() != 1 {
		t.Errorf("single point tree wrong: %+v", tr)
	}
}

// TestEuclideanSparseNonzeroRoot checks the DFS re-orientation after the
// Boruvka rounds honors an arbitrary root.
func TestEuclideanSparseNonzeroRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*4, rng.Float64()*4)
	}
	// Split into two far groups so the bridging path runs.
	for i := 20; i < 40; i++ {
		pts[i] = geom.Pt(pts[i].X+1e4, pts[i].Y)
	}
	for _, root := range []int{0, 7, 25, 39} {
		dense := Euclidean(pts, root)
		sparse := EuclideanSparse(pts, root)
		assertSpanningTree(t, sparse, len(pts), root)
		assertWeightEqual(t, dense.Weight, sparse.Weight)
		order := sparse.PreorderDFS()
		if len(order) != len(pts) || order[0] != root {
			t.Fatalf("root %d: preorder covers %d starting at %d", root, len(order), order[0])
		}
	}
}
