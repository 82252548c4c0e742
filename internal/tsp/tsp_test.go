package tsp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mst"
)

func randPts(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return pts
}

// Length returns the total Euclidean length of the closed tour over pts.
func (t Tour) Length(pts []geom.Point) float64 {
	if len(t.Order) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(t.Order); i++ {
		total += geom.Dist(pts[t.Order[i-1]], pts[t.Order[i]])
	}
	total += geom.Dist(pts[t.Order[len(t.Order)-1]], pts[t.Order[0]])
	return total
}

// Validate checks that t is a permutation of 0..n-1. It returns a
// descriptive error otherwise.
func (t Tour) Validate(n int) error {
	if len(t.Order) != n {
		return fmt.Errorf("tsp: tour has %d vertices, want %d", len(t.Order), n)
	}
	seen := make([]bool, n)
	for _, v := range t.Order {
		if v < 0 || v >= n {
			return fmt.Errorf("tsp: vertex %d out of range [0,%d)", v, n)
		}
		if seen[v] {
			return fmt.Errorf("tsp: vertex %d repeated", v)
		}
		seen[v] = true
	}
	return nil
}

func TestTourLength(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	tour := Tour{Order: []int{0, 1, 2, 3}}
	if got := tour.Length(pts); math.Abs(got-4) > 1e-9 {
		t.Errorf("Length = %v, want 4", got)
	}
	if got := (Tour{}).Length(pts); got != 0 {
		t.Errorf("empty tour length = %v", got)
	}
	if got := (Tour{Order: []int{2}}).Length(pts); got != 0 {
		t.Errorf("singleton tour length = %v", got)
	}
}

func TestTourValidate(t *testing.T) {
	tests := []struct {
		name    string
		order   []int
		n       int
		wantErr bool
	}{
		{"valid", []int{2, 0, 1}, 3, false},
		{"short", []int{0, 1}, 3, true},
		{"repeat", []int{0, 1, 1}, 3, true},
		{"out of range", []int{0, 1, 5}, 3, true},
		{"negative", []int{0, -1, 2}, 3, true},
		{"empty ok", nil, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Tour{Order: tt.order}.Validate(tt.n)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// mstApprox is the MST-doubling walk alone, Construct without its 2-opt
// descent: the preorder of the Euclidean MST rooted at start.
func mstApprox(pts []geom.Point, start int) Tour {
	tree := mst.EuclideanSparse(pts, start)
	if tree == nil {
		return Tour{}
	}
	return Tour{Order: tree.PreorderDFS()}
}

func TestConstructorsProduceValidTours(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(120)
		pts := randPts(rng, n)
		start := rng.Intn(n)
		tour := Construct(context.Background(), pts, start)
		if err := tour.Validate(n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tour.Order[0] != start {
			t.Fatalf("trial %d: starts at %d, want %d", trial, tour.Order[0], start)
		}
	}
}

func TestConstructorsEdgeCases(t *testing.T) {
	ctx := context.Background()
	if tour := Construct(ctx, nil, 0); len(tour.Order) != 0 {
		t.Errorf("empty pts should give empty tour")
	}
	if tour := Construct(ctx, randPts(rand.New(rand.NewSource(1)), 5), -1); len(tour.Order) != 0 {
		t.Errorf("bad start should give empty tour")
	}
	one := Construct(ctx, []geom.Point{geom.Pt(5, 5)}, 0)
	if len(one.Order) != 1 || one.Order[0] != 0 {
		t.Errorf("single point tour = %v", one.Order)
	}
	two := Construct(ctx, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, 1)
	if err := two.Validate(2); err != nil || two.Order[0] != 1 {
		t.Errorf("two point tour = %v (%v)", two.Order, err)
	}
}

// TestMSTApproxWithinTwiceOptimal verifies the 2-approximation bound of
// the MST-doubling walk against a brute-force optimum on small instances,
// and that Construct's 2-opt descent does not lengthen the walk.
func TestMSTApproxWithinTwiceOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(4) // 4..7
		pts := randPts(rng, n)
		opt := bruteForceOptimal(pts)
		walk := mstApprox(pts, 0).Length(pts)
		if walk > 2*opt+1e-9 {
			t.Errorf("trial %d: length %v > 2*opt %v", trial, walk, 2*opt)
		}
		if got := Construct(context.Background(), pts, 0).Length(pts); got > walk+1e-9 {
			t.Errorf("trial %d: Construct length %v > doubling walk %v", trial, got, walk)
		}
	}
}

func bruteForceOptimal(pts []geom.Point) float64 {
	n := len(pts)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if l := (Tour{Order: perm}).Length(pts); l < best {
				best = l
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(1) // fix start at 0
	return best
}

func TestTwoOptNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(100)
		pts := randPts(rng, n)
		tour := Tour{Order: rng.Perm(n)}
		before := tour.Length(pts)
		TwoOpt(&tour, pts, 0)
		after := tour.Length(pts)
		if after > before+1e-9 {
			t.Fatalf("trial %d: 2-opt worsened %v -> %v", trial, before, after)
		}
		if err := tour.Validate(n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestTwoOptFixesCrossing(t *testing.T) {
	// A deliberately crossed square tour: 0-2-1-3 crosses; 2-opt must undo it.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	tour := Tour{Order: []int{0, 2, 1, 3}}
	if moves := TwoOpt(&tour, pts, 0); moves == 0 {
		t.Fatal("expected at least one improving move")
	}
	if got := tour.Length(pts); math.Abs(got-4) > 1e-9 {
		t.Errorf("after 2-opt length = %v, want 4", got)
	}
}

func TestTwoOptTinyTours(t *testing.T) {
	pts := randPts(rand.New(rand.NewSource(2)), 3)
	tour := Tour{Order: []int{0, 1, 2}}
	if moves := TwoOpt(&tour, pts, 0); moves != 0 {
		t.Errorf("3-vertex tour cannot be improved, moves = %d", moves)
	}
}

func BenchmarkConstruct1000(b *testing.B) {
	pts := randPts(rand.New(rand.NewSource(1)), 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Construct(context.Background(), pts, 0)
	}
}

func BenchmarkTwoOpt200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPts(rng, 200)
	base := rng.Perm(len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tour := Tour{Order: slices.Clone(base)}
		TwoOpt(&tour, pts, 0)
	}
}
