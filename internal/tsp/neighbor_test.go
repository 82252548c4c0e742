package tsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func rngPoints(rng *rand.Rand, n int, side float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

func identityTour(n int) Tour {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return Tour{Order: order}
}

// TestTwoOptNeighborListNeverWorsens: every applied move strictly shortens
// the tour, so the descent can never return a longer tour than it was
// given, and the start vertex stays in front.
func TestTwoOptNeighborListNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(200)
		pts := rngPoints(rng, n, 100)
		tour := identityTour(n)
		rng.Shuffle(n-1, func(i, j int) { tour.Order[i+1], tour.Order[j+1] = tour.Order[j+1], tour.Order[i+1] })
		before := tour.Length(pts)
		moves := TwoOpt(&tour, pts, 0)
		after := tour.Length(pts)
		if after > before+1e-9 {
			t.Fatalf("trial %d (n=%d): length worsened %v -> %v", trial, n, before, after)
		}
		if moves > 0 && after >= before-1e-12 {
			t.Fatalf("trial %d: %d moves reported but no improvement (%v -> %v)", trial, moves, before, after)
		}
		if err := tour.Validate(n); err != nil {
			t.Fatalf("trial %d: invalid tour after descent: %v", trial, err)
		}
		if tour.Order[0] != 0 {
			t.Fatalf("trial %d: start vertex moved to %d", trial, tour.Order[0])
		}
	}
}

// TestTwoOptNeighborListFixesPlantedCrossing plants edge crossings the
// candidate lists are guaranteed to see and checks the descent removes
// them, reaching the known-optimal tour.
func TestTwoOptNeighborListFixesPlantedCrossing(t *testing.T) {
	// Square visited in diagonal (crossing) order; optimal is the
	// perimeter 4, the crossing order costs 2+2*sqrt(2).
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	tour := Tour{Order: []int{0, 2, 1, 3}}
	TwoOpt(&tour, pts, 0)
	if got := tour.Length(pts); math.Abs(got-4) > 1e-9 {
		t.Fatalf("square crossing not fixed: length %v, want 4", got)
	}

	// Points on a circle with a reversed interior segment: the two
	// crossings connect tour-adjacent vertices that are also spatial
	// neighbors, so the neighbor lists contain the repairing moves. The
	// unique optimum is the polygon perimeter.
	n := 48
	pts = make([]geom.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt(math.Cos(a), math.Sin(a))
	}
	perimeter := identityTour(n).Length(pts)
	tour = identityTour(n)
	reverse(tour.Order, 10, 20) // plant two crossings
	if tour.Length(pts) <= perimeter {
		t.Fatal("planting failed to lengthen the tour")
	}
	TwoOpt(&tour, pts, 0)
	if got := tour.Length(pts); math.Abs(got-perimeter) > 1e-9 {
		t.Fatalf("circle crossing not fixed: length %v, want perimeter %v", got, perimeter)
	}
}

// TestTwoOptNeighborListTinyTours: fewer than four vertices admit no
// 2-opt move; the descent must be a no-op, not a panic.
func TestTwoOptNeighborListTinyTours(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 4; n++ {
		pts := rngPoints(rng, n, 10)
		tour := identityTour(n)
		orig := append([]int(nil), tour.Order...)
		if moves := TwoOpt(&tour, pts, 0); moves != 0 {
			t.Fatalf("n=%d: %d moves on a tiny tour", n, moves)
		}
		for i := range orig {
			if tour.Order[i] != orig[i] {
				t.Fatalf("n=%d: order mutated", n)
			}
		}
	}
}

// TestTwoOptNeighborListQualityVsFull pins the quality gap between the
// neighbor-list descent (k = DefaultNeighborK) and the exact quadratic
// descent on random instances up to n=300: starting both from the same
// seeded random tour, the sparse result must stay within 5% of the full
// descent's length. The seeds are fixed, so a kernel regression
// shows up as a deterministic failure, not flakiness.
func TestTwoOptNeighborListQualityVsFull(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		n := 80 + rng.Intn(221) // 80..300
		pts := rngPoints(rng, n, 1000)
		start := rng.Perm(n)

		full := Tour{Order: slices.Clone(start)}
		TwoOptFull(&full, pts, 0)
		sparse := Tour{Order: slices.Clone(start)}
		TwoOpt(&sparse, pts, 0)

		lf, ls := full.Length(pts), sparse.Length(pts)
		if ls > lf*1.05 {
			t.Fatalf("seed %d (n=%d): neighbor-list %.3f vs full %.3f exceeds 1.05 ratio (%.4f)",
				seed, n, ls, lf, ls/lf)
		}
		if err := sparse.Validate(n); err != nil {
			t.Fatalf("seed %d: invalid tour: %v", seed, err)
		}
	}
}
