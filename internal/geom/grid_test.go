package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteNeighbors is the quadratic reference implementation used as an oracle.
func bruteNeighbors(pts []Point, q Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if Within(q, p, r) {
			out = append(out, i)
		}
	}
	return out
}

func sortedCopy(xs []int) []int {
	c := append([]int(nil), xs...)
	sort.Ints(c)
	return c
}

func TestGridEmpty(t *testing.T) {
	g := NewGrid(nil, 1)
	if g.Len() != 0 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.Neighbors(Pt(0, 0), 10, nil); len(got) != 0 {
		t.Errorf("Neighbors on empty grid = %v", got)
	}
	if i, d := g.Nearest(Pt(0, 0)); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty grid = %d, %v", i, d)
	}
}

func TestGridNeighborsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		cell := 0.5 + rng.Float64()*5
		g := NewGrid(pts, cell)
		for q := 0; q < 20; q++ {
			query := Pt(rng.Float64()*120-10, rng.Float64()*120-10)
			r := rng.Float64() * 15
			got := sortedCopy(g.Neighbors(query, r, nil))
			want := sortedCopy(bruteNeighbors(pts, query, r))
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d neighbors, want %d (r=%v)", trial, len(got), len(want), r)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: neighbors mismatch: got %v want %v", trial, got, want)
				}
			}
		}
	}
}

func TestGridNeighborsOfExcludesSelf(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(10, 10)}
	g := NewGrid(pts, 2.7)
	got := sortedCopy(g.NeighborsOf(0, 1.5, nil))
	want := []int{1, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("NeighborsOf(0) = %v, want %v", got, want)
	}
}

func TestGridNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		g := NewGrid(pts, 2.7)
		for q := 0; q < 20; q++ {
			// Include queries far outside the indexed bounds.
			query := Pt(rng.Float64()*400-150, rng.Float64()*400-150)
			gotIdx, gotD := g.Nearest(query)
			wantIdx, wantD := -1, math.Inf(1)
			for i, p := range pts {
				if d := Dist(query, p); d < wantD {
					wantIdx, wantD = i, d
				}
			}
			if math.Abs(gotD-wantD) > 1e-9 {
				t.Fatalf("trial %d: Nearest(%v) dist = %v (idx %d), want %v (idx %d)",
					trial, query, gotD, gotIdx, wantD, wantIdx)
			}
		}
	}
}

func TestGridCoincidentPoints(t *testing.T) {
	pts := []Point{Pt(5, 5), Pt(5, 5), Pt(5, 5)}
	g := NewGrid(pts, 1)
	got := g.Neighbors(Pt(5, 5), 0, nil)
	if len(got) != 3 {
		t.Errorf("coincident points: got %d neighbors, want 3", len(got))
	}
}

func TestGridReusesBuffer(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 1)}
	g := NewGrid(pts, 1)
	buf := make([]int, 0, 8)
	out := g.Neighbors(Pt(0, 0), 5, buf)
	if len(out) != 2 {
		t.Fatalf("got %d", len(out))
	}
	out2 := g.Neighbors(Pt(100, 100), 1, out)
	if len(out2) != 0 {
		t.Errorf("buffer reuse: got %v, want empty", out2)
	}
}

func BenchmarkGridNeighbors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 1200)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
	}
	g := NewGrid(pts, 2.7)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Neighbors(pts[i%len(pts)], 2.7, buf)
	}
}

// TestGridExtremeExtentsNoOverflow is the regression test for the cell-key
// integer overflow: with coordinate extents of ±1e12 and a tiny cell size,
// cols and rows used to be ~1e15 each, so cy*cols+cx wrapped int64 and
// distinct cells could collide on one bucket key (and the scan-window
// arithmetic could overflow outright). The guarded grid coarsens its cell
// size until cols*rows fits maxGridCells and must answer every query
// exactly like the brute-force oracle.
func TestGridExtremeExtentsNoOverflow(t *testing.T) {
	// Four distant clusters at the corners of a ±1e12 square plus one at
	// the origin, with intra-cluster spacing matched to the query radius.
	var pts []Point
	centers := []Point{
		Pt(-1e12, -1e12), Pt(1e12, -1e12), Pt(-1e12, 1e12), Pt(1e12, 1e12), Pt(0, 0),
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range centers {
		for i := 0; i < 8; i++ {
			pts = append(pts, Pt(c.X+rng.Float64()*4-2, c.Y+rng.Float64()*4-2))
		}
	}
	for _, cell := range []float64{1e-3, 1, 2.7} {
		g := NewGrid(pts, cell)
		if g.cols <= 0 || g.rows <= 0 {
			t.Fatalf("cell %g: non-positive grid dims %dx%d", cell, g.cols, g.rows)
		}
		if float64(g.cols)*float64(g.rows) > maxGridCells {
			t.Fatalf("cell %g: cols*rows = %d*%d exceeds maxGridCells", cell, g.cols, g.rows)
		}
		for _, q := range append(append([]Point{}, centers...), Pt(1e12-3, 1e12+1), Pt(5e11, 5e11)) {
			for _, r := range []float64{3, 10} {
				got := sortedCopy(g.Neighbors(q, r, nil))
				want := sortedCopy(bruteNeighbors(pts, q, r))
				if !equalInts(got, want) {
					t.Fatalf("cell %g: Neighbors(%v, %g) = %v, want %v", cell, q, r, got, want)
				}
			}
			bi, bd := -1, math.Inf(1)
			for i, p := range pts {
				if d := Dist(q, p); d < bd || (d == bd && i < bi) {
					bi, bd = i, d
				}
			}
			gi, gd := g.Nearest(q)
			if gi != bi || math.Abs(gd-bd) > 1e-6*(1+bd) {
				t.Fatalf("cell %g: Nearest(%v) = %d,%g, want %d,%g", cell, q, gi, gd, bi, bd)
			}
		}
	}
	// A radius spanning the whole field must return every point — this is
	// the scan-window clamp at work (one full-grid scan, no overflow).
	g := NewGrid(pts, 1)
	if got := g.Neighbors(Pt(0, 0), 5e12, nil); len(got) != len(pts) {
		t.Fatalf("field-spanning radius returned %d of %d points", len(got), len(pts))
	}
	// A query point far outside even these bounds must terminate and find
	// the closest cluster.
	if i, _ := g.Nearest(Pt(1e15, 1e15)); i < 0 {
		t.Fatal("Nearest from 1e15 away found nothing")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPairRadiusFindsEveryPair pins the three parts of PairRadius: the
// relative inflation (pairs exactly d apart by Hypot, whose squared
// distance can round above d*d), the floor (at d = 0, two points that
// share a third under Within although their own squared distance is a
// nonzero subnormal), and the cap (an infinite d must scan every cell).
func TestPairRadiusFindsEveryPair(t *testing.T) {
	found := func(pts []Point, d float64, i, j int) bool {
		r := PairRadius(d)
		for _, k := range NewGrid(pts, r).Neighbors(pts[i], r, nil) {
			if k == j {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		scale := math.Pow(10, float64(rng.Intn(10)-3))
		p := Pt(rng.Float64()*scale, rng.Float64()*scale)
		q := Pt(rng.Float64()*scale, rng.Float64()*scale)
		if d := Dist(p, q); !found([]Point{p, q}, d, 0, 1) {
			t.Fatalf("pair %v %v at Dist %v not found", p, q, d)
		}
		// Two points within d/2 of a shared third under Within.
		u := Midpoint(p, q)
		half := math.Max(Dist(p, u), Dist(q, u))
		if Within(p, u, half) && Within(q, u, half) && !found([]Point{p, q}, 2*half, 0, 1) {
			t.Fatalf("pair %v %v sharing %v within %v not found", p, q, u, half)
		}
	}
	p, q, u := Pt(0, 0), Pt(3e-162, 0), Pt(1.5e-162, 0)
	if !Within(p, u, 0) || !Within(q, u, 0) || DistSq(p, q) == 0 {
		t.Fatal("subnormal fixture no longer underflows as intended")
	}
	if !found([]Point{p, q}, 0, 0, 1) {
		t.Error("gamma = 0: points sharing a sensor by underflow not found")
	}
	pts := []Point{Pt(0, 0), Pt(1e3, -7), Pt(-5e5, 2e5)}
	for _, gamma := range []float64{math.Inf(1), 1e308} {
		if d := 2 * gamma; !found(pts, d, 0, 2) || !found(pts, d, 2, 1) {
			t.Errorf("gamma = %v: not every pair found", gamma)
		}
	}
}

// TestCellFor pins the cell-size rule the sparse kernels share: the area
// spacing for spread-out sets, the line spacing once the bounding box is
// thinner than the points are apart (exactly or up to a rounding error),
// and 1 for a zero or undefined extent.
func TestCellFor(t *testing.T) {
	a, b := 0.1, 0.2 // variables: Go folds the constant sum to exactly 0.3
	cases := []struct {
		name string
		b    Rect
		n    int
		want float64
	}{
		{"square", Square(100), 400, 2 * 100 / 20.0},
		{"strip", Rect{Max: Pt(1000, 1)}, 100, 2 * 1000 / 100.0},
		{"line", Rect{Max: Pt(0, 90)}, 40, 2 * 90 / 40.0},
		{"near-line", Rect{Min: Pt(0, 0.3), Max: Pt(100, a+b)}, 3, 2 * 100 / 3.0},
		{"coincident", Rect{Min: Pt(7, -3), Max: Pt(7, -3)}, 25, 1},
		{"empty", Rect{}, 0, 1},
		{"nan", Rect{Max: Pt(math.NaN(), 1)}, 5, 1},
	}
	for _, c := range cases {
		if got := CellFor(c.b, c.n); math.Abs(got-c.want) > 1e-12*c.want {
			t.Errorf("%s: CellFor = %v, want %v", c.name, got, c.want)
		}
	}
}
