package tsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mst"
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

// neighborListCases are the point sets the neighbor-list oracle runs on:
// uniform, exact lattices (every distance tied many times over),
// duplicates, collinear and near-collinear lines, far clusters, and sets
// smaller than k+1.
func neighborListCases() map[string][]geom.Point {
	rng := rand.New(rand.NewSource(31))
	cases := map[string][]geom.Point{
		"uniform-300":  rngPoints(rng, 300, 100),
		"uniform-1500": rngPoints(rng, 1500, 100),
		"tiny-1":       rngPoints(rng, 1, 10),
		"tiny-2":       rngPoints(rng, 2, 10),
		"tiny-11":      rngPoints(rng, 11, 10),
		"tiny-12":      rngPoints(rng, 12, 10),
	}
	lattice := func(side int, pitch float64) []geom.Point {
		var pts []geom.Point
		for i := range side * side {
			pts = append(pts, geom.Pt(float64(i%side)*pitch, float64(i/side)*pitch))
		}
		return pts
	}
	cases["lattice-20"] = lattice(20, 2.5)
	cases["lattice-7"] = lattice(7, 1)
	var dup []geom.Point
	for range 40 {
		p := geom.Pt(rng.Float64()*20, rng.Float64()*20)
		for range 1 + rng.Intn(6) {
			dup = append(dup, p)
		}
	}
	cases["duplicates"] = dup
	var same []geom.Point
	for range 30 {
		same = append(same, geom.Pt(4, -2))
	}
	cases["all-identical"] = same
	var line, vline, near []geom.Point
	a, b := 0.1, 0.2 // variables: Go folds the constant sum to exactly 0.3
	for i := range 80 {
		line = append(line, geom.Pt(rng.Float64()*500, 0))
		vline = append(vline, geom.Pt(3, float64(i%13)*1.5))
		y := 0.3
		if i%2 == 1 {
			y = a + b
		}
		near = append(near, geom.Pt(50*float64(i), y))
	}
	cases["collinear"] = line
	cases["collinear-ties"] = vline
	cases["near-collinear"] = near
	var far []geom.Point
	for c := range 6 {
		for range 15 {
			far = append(far, geom.Pt(float64(c)*1e5+rng.Float64(), float64(c%2)*3e4+rng.Float64()))
		}
	}
	cases["far-clusters"] = far
	return cases
}

// TestNeighborListsMatchReference checks the grid-built, sort-free
// neighbor lists against the O(n²) exact reference: the same rows in the
// same (d², index) order, entry for entry.
func TestNeighborListsMatchReference(t *testing.T) {
	for name, pts := range neighborListCases() {
		t.Run(name, func(t *testing.T) {
			assertNeighborListsMatch(t, pts)
		})
	}
}

// assertNeighborListsMatch checks both ways of finding the first ring:
// querying a grid of its own (TwoOpt) and reading the MST's candidate
// graph (Construct).
func assertNeighborListsMatch(t *testing.T, pts []geom.Point) {
	t.Helper()
	wantOff, wantAdj := neighborListsReference(pts)
	for _, cand := range []*mst.Candidates{nil, mst.NewCandidates(pts)} {
		off, adj := neighborLists(pts, cand)
		for u := range pts {
			got, want := adj[off[u]:off[u+1]], wantAdj[wantOff[u]:wantOff[u+1]]
			if !slices.Equal(got, want) {
				t.Fatalf("shared graph %v: row %d of %d: got %v, want %v", cand != nil, u, len(pts), got, want)
			}
		}
		if len(off) != len(pts)+1 || len(adj) != len(wantAdj) {
			t.Fatalf("shared graph %v: CSR shape: %d offsets, %d entries; want %d, %d", cand != nil, len(off), len(adj), len(pts)+1, len(wantAdj))
		}
	}
}

// FuzzNeighborListsMatchReference runs the neighbor-list oracle on
// fuzzed point sets: uniform points, optionally snapped to a lattice of
// the fuzzed pitch (ties everywhere) or squashed onto a line.
func FuzzNeighborListsMatchReference(f *testing.F) {
	f.Add(int64(1), uint16(40), 100.0, uint8(0))
	f.Add(int64(2), uint16(200), 10.0, uint8(1))
	f.Add(int64(3), uint16(12), 1e6, uint8(2))
	f.Add(int64(4), uint16(3), 1.0, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, side float64, shape uint8) {
		if !(side > 0 && side < 1e12) {
			t.Skip()
		}
		n := int(nRaw % 400)
		rng := rand.New(rand.NewSource(seed))
		pts := rngPoints(rng, n, side)
		for i := range pts {
			switch shape % 3 {
			case 1: // lattice of pitch side/16
				pitch := side / 16
				pts[i] = geom.Pt(math.Round(pts[i].X/pitch)*pitch, math.Round(pts[i].Y/pitch)*pitch)
			case 2: // a line
				pts[i].Y = 0
			}
		}
		assertNeighborListsMatch(t, pts)
	})
}
