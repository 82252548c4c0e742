package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 1), Pt(1, 1), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
		{"diagonal", Pt(1, 2), Pt(4, 6), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dist(tt.p, tt.q); !almostEq(got, tt.want) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSqConsistent(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Clamp to a sane range to avoid overflow artifacts in Hypot vs
		// the squared form.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		p := Pt(clamp(ax), clamp(ay))
		q := Pt(clamp(bx), clamp(by))
		d := Dist(p, q)
		return math.Abs(d*d-DistSq(p, q)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1e4) }
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		if !almostEq(Dist(a, b), Dist(b, a)) {
			return false
		}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDistSqSymmetricBitForBit checks that DistSq(p, q) and DistSq(q, p)
// are the same float, bit for bit: a - b is -(b - a) exactly under
// round-to-nearest, and squaring drops the sign. The 2-opt's neighbour
// lists read the d² stored on one side of a pair as the other side's key.
// The inputs span magnitudes from subnormal to overflowing, signed zeros
// and the lattice ties the planner meets.
func TestDistSqSymmetricBitForBit(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-160, 0.1, 0.3, 1, 2.5, 2.7, -2.7,
		3.14159, 1e8 + 0.5, -1e12, 1e154, 1e200, -1e200, 1.5e308, -1.5e308, math.MaxFloat64}
	check := func(p, q Point) {
		if a, b := math.Float64bits(DistSq(p, q)), math.Float64bits(DistSq(q, p)); a != b {
			t.Fatalf("DistSq(%v, %v) = %v, DistSq(%v, %v) = %v", p, q, DistSq(p, q), q, p, DistSq(q, p))
		}
	}
	for _, ax := range vals {
		for _, ay := range vals {
			for _, bx := range vals {
				for _, by := range []float64{0, -0.1, 2.7, 1e200} {
					check(Pt(ax, ay), Pt(bx, by))
				}
			}
		}
	}
	f := func(ax, ay, bx, by float64) bool {
		return math.Float64bits(DistSq(Pt(ax, ay), Pt(bx, by))) == math.Float64bits(DistSq(Pt(bx, by), Pt(ax, ay)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestWithin(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		r    float64
		want bool
	}{
		{"inside", Pt(0, 0), Pt(1, 1), 2, true},
		{"on boundary", Pt(0, 0), Pt(3, 4), 5, true},
		{"outside", Pt(0, 0), Pt(3, 4), 4.9, false},
		{"zero radius same point", Pt(2, 2), Pt(2, 2), 0, true},
		{"negative radius", Pt(0, 0), Pt(0, 0), -1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Within(tt.p, tt.q, tt.r); got != tt.want {
				t.Errorf("Within(%v, %v, %v) = %v, want %v", tt.p, tt.q, tt.r, got, tt.want)
			}
		})
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, 5)
	if got := p.Add(q); got != Pt(4, 7) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != Pt(2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := Pt(3, 4).Norm(); !almostEq(got, 5) {
		t.Errorf("Norm = %v", got)
	}
	if got := Midpoint(p, q); got != Pt(2, 3.5) {
		t.Errorf("Midpoint = %v", got)
	}
}

func TestFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true},
		{Pt(-1e308, math.MaxFloat64), true},
		{Pt(nan, 0), false},
		{Pt(0, nan), false},
		{Pt(inf, 0), false},
		{Pt(0, -inf), false},
	}
	for _, tt := range tests {
		if got := tt.p.Finite(); got != tt.want {
			t.Errorf("%v.Finite() = %v, want %v", tt.p, got, tt.want)
		}
		if got := Finite(tt.p.X) && Finite(tt.p.Y); got != tt.want {
			t.Errorf("Finite(%v) && Finite(%v) = %v, want %v", tt.p.X, tt.p.Y, got, tt.want)
		}
	}
}

func TestPathAndTourLength(t *testing.T) {
	square := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	if got := PathLength(square); !almostEq(got, 3) {
		t.Errorf("PathLength = %v, want 3", got)
	}
	if got := ClosedTourLength(square); !almostEq(got, 4) {
		t.Errorf("ClosedTourLength = %v, want 4", got)
	}
	if got := ClosedTourLength(nil); got != 0 {
		t.Errorf("ClosedTourLength(nil) = %v, want 0", got)
	}
	if got := ClosedTourLength([]Point{Pt(5, 5)}); got != 0 {
		t.Errorf("ClosedTourLength(single) = %v, want 0", got)
	}
}

func TestRect(t *testing.T) {
	r := Square(100)
	if r.Width() != 100 || r.Height() != 100 {
		t.Fatalf("Square(100) dims wrong: %v", r)
	}
	if c := r.Center(); c != Pt(50, 50) {
		t.Errorf("Center = %v, want (50,50)", c)
	}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(100, 100)) || r.Contains(Pt(100.01, 50)) {
		t.Error("Contains boundary behavior wrong")
	}
	if got := r.Clamp(Pt(-5, 120)); got != Pt(0, 100) {
		t.Errorf("Clamp = %v, want (0,100)", got)
	}
}

func TestBounds(t *testing.T) {
	if got := Bounds(nil); got != (Rect{}) {
		t.Errorf("Bounds(nil) = %v", got)
	}
	pts := []Point{Pt(3, 7), Pt(-1, 2), Pt(5, -4)}
	got := Bounds(pts)
	want := Rect{Min: Pt(-1, -4), Max: Pt(5, 7)}
	if got != want {
		t.Errorf("Bounds = %v, want %v", got, want)
	}
	for _, p := range pts {
		if !got.Contains(p) {
			t.Errorf("Bounds does not contain %v", p)
		}
	}
}
