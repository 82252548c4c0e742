package geom

import (
	"math"
	"math/rand"
	"slices"
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
	if i, d := g.NearestWhere(Pt(0, 0), math.Inf(1), nil); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("NearestWhere on empty grid = %d, %v", i, d)
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

// TestGridNearestMatchesBrute checks NearestWhere's unbounded search (no
// cap, no predicate) against a linear scan.
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
			gotIdx, gotD := g.NearestWhere(query, math.Inf(1), nil)
			wantIdx, wantD := -1, math.Inf(1)
			for i, p := range pts {
				if d := Dist(query, p); d < wantD {
					wantIdx, wantD = i, d
				}
			}
			if math.Abs(gotD-wantD) > 1e-9 {
				t.Fatalf("trial %d: NearestWhere(%v) dist = %v (idx %d), want %v (idx %d)",
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
			gi, gd := g.NearestWhere(q, math.Inf(1), nil)
			if gi != bi || math.Abs(gd-bd) > 1e-6*(1+bd) {
				t.Fatalf("cell %g: NearestWhere(%v) = %d,%g, want %d,%g", cell, q, gi, gd, bi, bd)
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
	if i, _ := g.NearestWhere(Pt(1e15, 1e15), math.Inf(1), nil); i < 0 {
		t.Fatal("NearestWhere from 1e15 away found nothing")
	}
}

// TestGridOverflowingExtentsQueryTheOneCell covers point sets whose
// extent overflows float64 (clusters near ±1.5e308). NewGrid collapses
// them into one infinite cell, and a query's offset from the grid corner
// can overflow too; queries must still scan that cell and answer like the
// brute-force oracle, in ascending index order, every point finding
// itself.
func TestGridOverflowingExtentsQueryTheOneCell(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pts []Point
	for _, c := range []Point{Pt(-1.5e308, 0), Pt(1.5e308, 0), Pt(0, 1.5e308), Pt(1e308, -1e308)} {
		for i := 0; i < 6; i++ {
			pts = append(pts, Pt(c.X+rng.Float64()*4-2, c.Y+rng.Float64()*4-2))
		}
	}
	g := NewGrid(pts, 2.7)
	if !math.IsInf(g.cell, 1) || g.cols != 1 || g.rows != 1 {
		t.Fatalf("fixture does not collapse the grid: cell %v, %dx%d", g.cell, g.cols, g.rows)
	}
	for i, q := range pts {
		for _, r := range []float64{0, 3, 10} {
			got := g.Neighbors(q, r, nil)
			if want := bruteNeighbors(pts, q, r); !equalInts(got, want) {
				t.Fatalf("Neighbors(%v, %g) = %v, want %v", q, r, got, want)
			}
			if !slices.Contains(got, i) {
				t.Fatalf("point %d not found by its own query at radius %g", i, r)
			}
		}
		j, d := g.NearestWhere(q, 10, func(k int) bool { return k != i })
		bj, bd := -1, math.Inf(1)
		for k, p := range pts {
			if dk := Dist(q, p); k != i && dk <= 10 && dk < bd {
				bj, bd = k, dk
			}
		}
		if j != bj || d != bd {
			t.Fatalf("NearestWhere around %d = %d,%v, want %d,%v", i, j, d, bj, bd)
		}
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

// TestPairRadiusFindsEveryPair pins the two parts of PairRadius — the
// relative inflation (pairs exactly d apart by Hypot, whose squared
// distance can round above d*d) and the floor (at d = 0, two points that
// share a third under Within although their own squared distance is a
// nonzero subnormal) — and that an infinite d scans every cell.
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

// orderedRef is the grid-free oracle for the query order. It assigns each
// point its cell the way NewGrid does — the requested size, doubled only
// where the maxGridCells rule doubles it, anchored at the bounding box —
// and answers a query with the points within r of q (by Within), sorted
// by (cell row, cell column, index). Indexed coordinates must be finite.
type orderedRef struct {
	pts    []Point
	cx, cy []float64
}

func newOrderedRef(pts []Point, cell float64) *orderedRef {
	if !(cell > 0) {
		cell = 1
	}
	o := &orderedRef{pts: pts}
	if len(pts) == 0 {
		return o
	}
	b := Bounds(pts)
	for (math.Floor(b.Width()/cell)+1)*(math.Floor(b.Height()/cell)+1) > maxGridCells {
		cell *= 2
	}
	for _, p := range pts {
		o.cx = append(o.cx, math.Floor((p.X-b.Min.X)/cell))
		o.cy = append(o.cy, math.Floor((p.Y-b.Min.Y)/cell))
	}
	return o
}

func (o *orderedRef) neighbors(q Point, r float64) []int {
	var out []int
	for i, p := range o.pts {
		if Within(q, p, r) {
			out = append(out, i)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		i, j := out[a], out[b]
		if o.cy[i] != o.cy[j] {
			return o.cy[i] < o.cy[j]
		}
		return o.cx[i] < o.cx[j]
	})
	return out
}

// neighborsOf is neighbors around point i with i itself dropped the way
// NeighborsOf drops it: the last result moves into its slot.
func (o *orderedRef) neighborsOf(i int, r float64) []int {
	out := o.neighbors(o.pts[i], r)
	for j, k := range out {
		if k == i {
			out[j] = out[len(out)-1]
			return out[:len(out)-1]
		}
	}
	return out
}

// orderedCheck compares one grid with the ordered oracle over the same
// points and cell size.
type orderedCheck struct {
	t    *testing.T
	name string
	g    *Grid
	ref  *orderedRef
}

func newOrderedCheck(t *testing.T, name string, pts []Point, cell float64) *orderedCheck {
	return &orderedCheck{t: t, name: name, g: NewGrid(pts, cell), ref: newOrderedRef(pts, cell)}
}

// queries compares Neighbors (order included) and NearestWhere, with and
// without a predicate, at every query point and radius. It returns the
// number of non-empty Neighbors results, so a caller can tell that the
// comparison was not vacuous.
func (c *orderedCheck) queries(qs []Point, rs []float64) int {
	c.t.Helper()
	some := func(i int) bool { return i%3 != 0 }
	hits := 0
	var buf []int
	for _, r := range rs {
		for _, q := range qs {
			buf = c.g.Neighbors(q, r, buf)
			if want := c.ref.neighbors(q, r); !equalInts(buf, want) {
				c.t.Fatalf("%s: Neighbors(%v, %v) = %v, want %v", c.name, q, r, buf, want)
			}
			if len(buf) > 0 {
				hits++
			}
			if math.IsInf(r, 1) && (math.IsNaN(q.X) || math.IsNaN(q.Y)) {
				continue // finds nothing, but only after walking every ring
			}
			for _, accept := range []func(int) bool{nil, some} {
				gi, gd := c.g.NearestWhere(q, r, accept)
				wi, wd := bruteNearestWhere(c.ref.pts, q, r, accept)
				if gi != wi || (gd != wd && !(math.IsInf(gd, 1) && math.IsInf(wd, 1))) {
					c.t.Fatalf("%s: NearestWhere(%v, %v) = %d,%v, want %d,%v", c.name, q, r, gi, gd, wi, wd)
				}
			}
		}
	}
	return hits
}

// neighborsOf compares NeighborsOf around each of the first k indexed
// points (all of them when k < 0) at every radius.
func (c *orderedCheck) neighborsOf(k int, rs []float64) {
	c.t.Helper()
	if k < 0 || k > c.g.Len() {
		k = c.g.Len()
	}
	var buf []int
	for _, r := range rs {
		for i := 0; i < k; i++ {
			buf = c.g.NeighborsOf(i, r, buf)
			if want := c.ref.neighborsOf(i, r); !equalInts(buf, want) {
				c.t.Fatalf("%s: NeighborsOf(%d, %v) = %v, want %v", c.name, i, r, buf, want)
			}
		}
	}
}

// specialRadii and nanQueries ride along with every input of the ordered
// oracle test: a zero radius, one whose square underflows, an infinite
// one, and query points with a NaN coordinate. An infinite radius scans
// every cell, so on the inputs with millions of cells it is checked
// around a few points only.
var (
	specialRadii = []float64{0, 1e-200, math.Inf(1)}
	nanQueries   = []Point{Pt(math.NaN(), 0), Pt(0, math.NaN()), Pt(math.NaN(), math.NaN())}
)

// twoClusters draws n points in two Gaussian clusters of the given sigma
// centred at (0, 0) and (d, d). At a cell of a few metres and d of
// kilometres the grid has far more than 2n cells, so it hashes them.
func twoClusters(rng *rand.Rand, n int, sigma, d float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		c := float64(i%2) * d
		pts[i] = Pt(c+rng.NormFloat64()*sigma, c+rng.NormFloat64()*sigma)
	}
	return pts
}

// mixedBuckets counts the hashed buckets that hold more than one cell.
func mixedBuckets(g *Grid) int {
	if g.ckey == nil {
		return 0
	}
	mixed := 0
	for b := 0; b+1 < len(g.off); b++ {
		for j := g.off[b]; j < g.off[b+1]; j++ {
			if g.ckey[j] != g.ckey[g.off[b]] {
				mixed++
				break
			}
		}
	}
	return mixed
}

// TestGridMatchesOrderedReference pins the query order every consumer
// records — row-major cells, then ascending index within a cell — against
// an oracle that does not use the grid, on the inputs most likely to
// break the bucket table or the scan window.
func TestGridMatchesOrderedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sample := func(pts []Point, k int) []Point {
		var qs []Point
		for j := 0; j < k && len(pts) > 0; j++ {
			qs = append(qs, pts[rng.Intn(len(pts))])
		}
		return qs
	}
	// all checks every query, NaN queries and every indexed point at the
	// given and the special radii.
	all := func(c *orderedCheck, qs []Point, rs []float64) int {
		rs = append(rs, specialRadii...)
		c.neighborsOf(-1, rs)
		return c.queries(append(qs, nanQueries...), rs)
	}

	t.Run("uniform", func(t *testing.T) {
		var dense, hashed int
		for trial := 0; trial < 20; trial++ {
			pts := make([]Point, 1+rng.Intn(300))
			for i := range pts {
				pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
			}
			cell := 0.5 + rng.Float64()*7
			qs := sample(pts, 10)
			for j := 0; j < 10; j++ {
				qs = append(qs, Pt(rng.Float64()*140-20, rng.Float64()*140-20))
			}
			c := newOrderedCheck(t, "uniform", pts, cell)
			if c.g.ckey == nil {
				dense++
			} else {
				hashed++
			}
			all(c, qs, []float64{cell, rng.Float64() * 3 * cell})
		}
		if dense == 0 || hashed == 0 {
			t.Fatalf("trials built %d dense and %d hashed tables; want both", dense, hashed)
		}
	})

	t.Run("two-clusters", func(t *testing.T) {
		pts := twoClusters(rng, 600, 20, 7071)
		c := newOrderedCheck(t, "two-clusters", pts, 2.7)
		if c.g.ckey == nil || mixedBuckets(c.g) == 0 {
			t.Fatalf("fixture does not share hashed buckets between cells (hashed %v, mixed %d)", c.g.ckey != nil, mixedBuckets(c.g))
		}
		rs := []float64{0, 1e-200, 2.7, 5.4, 30}
		c.neighborsOf(-1, rs)
		c.queries(append(append(sample(pts, 30), Pt(3500, 3500)), nanQueries...), rs)
		c.neighborsOf(1, []float64{math.Inf(1)})
		c.queries([]Point{Pt(3500, 3500), nanQueries[0]}, []float64{math.Inf(1)})
	})

	t.Run("lattice", func(t *testing.T) {
		// Lattice points sit on cell boundaries, and each query lies at a
		// distance from its target that rounds to exactly r, so the target
		// is in range while q+r can round to just below its cell: only the
		// window's slack keeps that cell in the scan.
		hits := 0
		for trial := 0; trial < 40; trial++ {
			s := math.Pow(2, float64(rng.Intn(8)-4)) * (1 + rng.Float64())
			ox, oy := -rng.Float64()*10*s, -rng.Float64()*10*s
			var pts []Point
			for i := 0; i < 15; i++ {
				for j := 0; j < 15; j++ {
					pts = append(pts, Pt(ox+float64(i)*s, oy+float64(j)*s))
				}
			}
			c := newOrderedCheck(t, "lattice", pts, s)
			for j := 0; j < 25; j++ {
				p := pts[rng.Intn(len(pts))]
				q := Pt(ox+(rng.Float64()*30-10)*s, p.Y)
				if rng.Intn(2) == 0 {
					q = Pt(p.X, oy+(rng.Float64()*30-10)*s)
				}
				hits += c.queries([]Point{q}, []float64{Dist(p, q)})
			}
			if trial%4 == 0 {
				all(c, sample(pts, 10), []float64{s})
			}
		}
		if hits == 0 {
			t.Fatal("no lattice query found its target")
		}
	})

	t.Run("collinear", func(t *testing.T) {
		a, b := 0.1, 0.2 // variables: Go folds the constant sum to exactly 0.3
		var line, near []Point
		for i := 0; i < 80; i++ {
			line = append(line, Pt(float64(i)*1.7, 3*float64(i)*1.7+1))
			y := 0.3
			if i%2 == 1 {
				y = a + b
			}
			near = append(near, Pt(50*float64(i), y))
		}
		all(newOrderedCheck(t, "collinear", line, 1.7), sample(line, 20), []float64{1.7, 6, 40})
		all(newOrderedCheck(t, "near-collinear", near, 2.7), sample(near, 20), []float64{2.7, 50, 120})
	})

	t.Run("coincident", func(t *testing.T) {
		pts := []Point{Pt(5, 5), Pt(1, 2), Pt(5, 5), Pt(5, 5), Pt(1, 2)}
		all(newOrderedCheck(t, "coincident", pts, 1), []Point{Pt(5, 5), Pt(1, 2), Pt(3, 3.5)}, []float64{1, 5})
		same := []Point{Pt(-7, 3), Pt(-7, 3), Pt(-7, 3)}
		all(newOrderedCheck(t, "all-coincident", same, 2.7), []Point{Pt(-7, 3), Pt(-7, 4)}, []float64{1})
	})

	t.Run("extreme-extents", func(t *testing.T) {
		// At ±1e12 the two smaller cells are coarsened to fit maxGridCells,
		// which leaves ~2^26 cells. A field-spanning radius scans every
		// cell, so it runs on the 4e6 cells of the largest size only.
		var pts []Point
		for _, c := range []Point{Pt(-1e12, -1e12), Pt(1e12, -1e12), Pt(-1e12, 1e12), Pt(1e12, 1e12), Pt(0, 0)} {
			for i := 0; i < 8; i++ {
				pts = append(pts, Pt(c.X+rng.Float64()*4-2, c.Y+rng.Float64()*4-2))
			}
		}
		for _, cell := range []float64{1e-3, 2.7, 1e9} {
			c := newOrderedCheck(t, "extreme-extents", pts, cell)
			rs := []float64{0, 1e-200, 3, 1e5}
			c.neighborsOf(-1, rs)
			c.queries(append(append(sample(pts, 10), Pt(1e12-3, 1e12+1)), nanQueries...), rs)
		}
		c := newOrderedCheck(t, "extreme-extents", pts, 1e9)
		c.queries([]Point{Pt(1e12-3, 1e12+1), nanQueries[2]}, []float64{2e12, math.Inf(1)})
	})

	t.Run("underflow", func(t *testing.T) {
		// Two points 1e-170 apart in adjacent cells: their squared distance
		// underflows to zero, so each is within radius 0 of the other.
		pts := []Point{Pt(0, 0), Pt(1e-170, 0)}
		if all(newOrderedCheck(t, "underflow", pts, 1e-170), pts, nil) == 0 {
			t.Fatal("no query found the underflowing pair")
		}
	})
}

// FuzzGridMatchesOrderedReference fuzzes the point set, the cell size,
// one query point and one radius against the ordered oracle. Points mix
// a uniform square, a far cluster (which makes the grid hash its cells),
// a lattice at the cell size and duplicates.
func FuzzGridMatchesOrderedReference(f *testing.F) {
	f.Add(int64(1), uint8(200), 2.7, 100.0, 2.7, 50.0, 50.0)
	f.Add(int64(2), uint8(255), 2.7, 40.0, 5.4, 4000.0, 4000.0)
	f.Add(int64(3), uint8(30), 0.0, 1e12, 3.0, 0.0, 0.0)
	f.Add(int64(4), uint8(90), 1e-3, 1.0, 1e-200, 0.5, 0.5)
	f.Add(int64(5), uint8(60), 0.7, 10.0, math.Inf(1), math.NaN(), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, cell, spread, r, qx, qy float64) {
		if !(math.Abs(spread) <= 1e15) || !(math.Abs(cell) <= 1e15) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, 1+int(nRaw))
		for i := range pts {
			switch rng.Intn(4) {
			case 0:
				pts[i] = Pt(rng.Float64()*spread, rng.Float64()*spread)
			case 1:
				pts[i] = Pt(100*spread+rng.NormFloat64()*cell, 100*spread+rng.NormFloat64()*cell)
			case 2:
				pts[i] = Pt(float64(rng.Intn(20))*cell, float64(rng.Intn(20))*cell)
			default:
				pts[i] = pts[rng.Intn(i+1)]
			}
		}
		c := newOrderedCheck(t, "fuzz", pts, cell)
		rs := []float64{r, cell}
		c.queries([]Point{Pt(qx, qy), pts[rng.Intn(len(pts))]}, rs)
		c.neighborsOf(4, rs)
	})
}

// BenchmarkGridNeighbors builds a grid at cell gamma and queries every
// point's gamma-neighbourhood once per op, as UnitDisk's count pass does:
// uniform requests at the paper's density (n = 30k on a 500 m field), and
// the same count in two far-apart clusters, whose grid hashes its cells.
func BenchmarkGridNeighbors(b *testing.B) {
	const gamma = 2.7
	rng := rand.New(rand.NewSource(1))
	uniform := make([]Point, 30000)
	for i := range uniform {
		uniform[i] = Pt(rng.Float64()*500, rng.Float64()*500)
	}
	for _, bc := range []struct {
		name string
		pts  []Point
	}{
		{"uniform-30k", uniform},
		{"two-clusters-30k", twoClusters(rng, 30000, 30, 10000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := NewGrid(bc.pts, gamma)
				for u := range bc.pts {
					buf = g.NeighborsOf(u, gamma, buf)
				}
			}
		})
	}
}
