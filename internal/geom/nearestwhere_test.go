package geom

import (
	"math"
	"math/rand"
	"testing"
)

// bruteNearestWhere is the linear-scan oracle for NearestWhere's contract:
// nearest accepted point within maxDist (inclusive), ties to the lowest
// index, and nothing for a negative or NaN maxDist.
func bruteNearestWhere(pts []Point, q Point, maxDist float64, accept func(int) bool) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	if !(maxDist >= 0) {
		return best, bestD2
	}
	maxD2 := maxDist * maxDist
	for i, p := range pts {
		if accept != nil && !accept(i) {
			continue
		}
		d2 := DistSq(q, p)
		if d2 > maxD2 {
			continue
		}
		if d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best, math.Sqrt(bestD2)
}

// TestNearestWhereMatchesBrute sweeps random grids, query points (inside
// and far outside the indexed bounds), radii and random predicates
// against the linear-scan oracle.
func TestNearestWhereMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		g := NewGrid(pts, 0.5+rng.Float64()*20)
		// Random predicate over a random acceptance rate; sometimes nil.
		var accept func(int) bool
		if rng.Intn(4) > 0 {
			keep := make([]bool, n)
			rate := rng.Float64()
			for i := range keep {
				keep[i] = rng.Float64() < rate
			}
			accept = func(i int) bool { return keep[i] }
		}
		q := Pt(rng.Float64()*300-100, rng.Float64()*300-100)
		if trial%5 == 0 {
			q = Pt(rng.Float64()*1e6, -rng.Float64()*1e6) // far outside the bounds
		}
		maxDist := math.Inf(1)
		if rng.Intn(2) == 0 {
			maxDist = rng.Float64() * 150
		}
		wantI, wantD := bruteNearestWhere(pts, q, maxDist, accept)
		gotI, gotD := g.NearestWhere(q, maxDist, accept)
		if gotI != wantI {
			t.Fatalf("trial %d: NearestWhere index = %d, brute = %d (q=%v maxDist=%v)", trial, gotI, wantI, q, maxDist)
		}
		if wantI >= 0 && math.Abs(gotD-wantD) > 1e-12 {
			t.Fatalf("trial %d: distance %v, brute %v", trial, gotD, wantD)
		}
		if wantI < 0 && !math.IsInf(gotD, 1) {
			t.Fatalf("trial %d: no-hit distance should be +Inf, got %v", trial, gotD)
		}
	}
}

// TestNearestWhereBounds pins the maxDist contract: inclusive at the
// boundary, (-1, +Inf) when nothing qualifies, and NaN/negative caps
// rejected.
func TestNearestWhereBounds(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 4)} // distance 5 from origin neighbor
	g := NewGrid(pts, 1)
	if i, d := g.NearestWhere(Pt(3, 0), 4, func(i int) bool { return i == 1 }); i != 1 || d != 4 {
		t.Errorf("inclusive boundary: got (%d, %v), want (1, 4)", i, d)
	}
	if i, _ := g.NearestWhere(Pt(3, 0), 3.999, func(i int) bool { return i == 1 }); i != -1 {
		t.Errorf("beyond cap matched: %d", i)
	}
	if i, d := g.NearestWhere(Pt(0, 0), math.Inf(1), func(int) bool { return false }); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("all-rejecting predicate: got (%d, %v)", i, d)
	}
	if i, _ := g.NearestWhere(Pt(0, 0), math.NaN(), nil); i != -1 {
		t.Errorf("NaN maxDist matched %d", i)
	}
	if i, _ := g.NearestWhere(Pt(0, 0), -1, nil); i != -1 {
		t.Errorf("negative maxDist matched %d", i)
	}
}

// TestNearestWhereThinGrid: on a one-row or one-column grid of a million
// cells, a query whose nearest acceptable point is at the far end must
// still find it, and each ring must cost its in-grid cells only. Walking
// every row of each ring, as the search once did, made this ~1e12 steps.
func TestNearestWhereThinGrid(t *testing.T) {
	for _, far := range []Point{Pt(1000, 0), Pt(0, 1000)} {
		pts := []Point{Pt(0, 0), far, Pt(0, 0)}
		g := NewGrid(pts, 1e-3)
		if i, d := g.NearestWhere(Pt(0, 0), math.Inf(1), func(i int) bool { return i == 1 }); i != 1 || d != 1000 {
			t.Errorf("far point %v: got (%d, %v), want (1, 1000)", far, i, d)
		}
		if i, d := g.NearestWhere(far, math.Inf(1), func(i int) bool { return i != 1 }); i != 0 || d != 1000 {
			t.Errorf("from %v: got (%d, %v), want (0, 1000)", far, i, d)
		}
	}
}

// TestNearestWhereTiesLowestIndex: equidistant candidates — even across
// different grid cells — must resolve to the lowest index. The sparse
// matching kernel's determinism (and its brute-force fuzz oracle) depend
// on this.
func TestNearestWhereTiesLowestIndex(t *testing.T) {
	// Four points on a circle around the query, listed in scrambled cell
	// order; small cells force them into distinct cells.
	pts := []Point{Pt(10, 15), Pt(15, 10), Pt(10, 5), Pt(5, 10)}
	g := NewGrid(pts, 0.9)
	if i, d := g.NearestWhere(Pt(10, 10), math.Inf(1), nil); i != 0 || math.Abs(d-5) > 1e-12 {
		t.Errorf("tie resolved to %d (d=%v), want 0", i, d)
	}
	// Excluding index 0 moves the winner to the next-lowest.
	if i, _ := g.NearestWhere(Pt(10, 10), math.Inf(1), func(i int) bool { return i != 0 }); i != 1 {
		t.Errorf("tie with 0 excluded resolved to %d, want 1", i)
	}
	// Coincident duplicates tie at distance zero.
	dup := []Point{Pt(2, 2), Pt(2, 2), Pt(2, 2)}
	gd := NewGrid(dup, 1)
	if i, d := gd.NearestWhere(Pt(2, 2), 0, nil); i != 0 || d != 0 {
		t.Errorf("coincident tie: got (%d, %v), want (0, 0)", i, d)
	}
}
