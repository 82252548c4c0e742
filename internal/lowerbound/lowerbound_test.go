package lowerbound

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/geom"
	"repro/internal/ktour"
)

func TestComputeEmptyAndInvalid(t *testing.T) {
	if b := Compute(&core.Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 1}); b.Value != 0 {
		t.Errorf("empty instance bound = %+v", b)
	}
	if b := Compute(&core.Instance{K: 0}); b.Value != 0 {
		t.Errorf("invalid instance bound = %+v", b)
	}
}

func TestFarthestBoundHandComputed(t *testing.T) {
	in := &core.Instance{
		Depot: geom.Pt(0, 0),
		Requests: []core.Request{
			{Pos: geom.Pt(100, 0), Duration: 500},
			{Pos: geom.Pt(10, 0), Duration: 10},
		},
		Gamma: 2.7, Speed: 2, K: 3,
	}
	b := Compute(in)
	want := 2*(100-2.7)/2 + 500
	if math.Abs(b.Farthest-want) > 1e-9 {
		t.Errorf("Farthest = %v, want %v", b.Farthest, want)
	}
	if b.Value < b.Farthest {
		t.Error("Value below Farthest")
	}
}

func TestPackingIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < 300; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: rng.Float64() * 5400,
		})
	}
	b := Compute(in)
	if b.PackingSize < 1 || b.PackingSize > len(in.Requests) {
		t.Fatalf("packing size %d", b.PackingSize)
	}
	if b.PackingWork <= 0 || b.PackingTravel <= 0 {
		t.Errorf("packing bounds not positive: %+v", b)
	}
}

// TestBoundBelowAllSchedules is the defining property: every feasible
// schedule any of our algorithms produces must cost at least the bound.
func TestBoundBelowAllSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	planners := []core.Planner{core.ApproPlanner{}, baselines.KMinMax{}, baselines.NETWRAP{}}
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(120)
		k := 1 + rng.Intn(4)
		in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: k}
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, core.Request{
				Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
				Duration: (0.5 + rng.Float64()) * 3600,
			})
		}
		lb := Compute(in)
		for _, p := range planners {
			s, err := p.Plan(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if s.Longest < lb.Value-1e-6 {
				t.Fatalf("trial %d: %s longest %v below lower bound %v",
					trial, p.Name(), s.Longest, lb.Value)
			}
		}
	}
}

// TestBoundBelowExactOptimum checks validity against the true optimum on
// tiny one-to-one instances (gamma = 0 makes multi-node and one-to-one
// coincide, and the exact solver optimizes exactly that problem).
func TestBoundBelowExactOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(7)
		k := 1 + rng.Intn(3)
		in := &core.Instance{Depot: geom.Pt(5, 5), Gamma: 0, Speed: 1, K: k}
		kin := ktour.Input{Depot: in.Depot, Speed: 1, K: k}
		for i := 0; i < n; i++ {
			pos := geom.Pt(rng.Float64()*10, rng.Float64()*10)
			dur := rng.Float64() * 100
			in.Requests = append(in.Requests, core.Request{Pos: pos, Duration: dur})
			kin.Nodes = append(kin.Nodes, pos)
			kin.Service = append(kin.Service, dur)
		}
		res, err := exact.MinMax(context.Background(), kin)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("trial %d: exact solver fell back without cancellation", trial)
		}
		lb := Compute(in)
		if lb.Value > res.Value+1e-6 {
			t.Fatalf("trial %d: lower bound %v exceeds optimum %v", trial, lb.Value, res.Value)
		}
	}
}

// TestApproEmpiricalQuality records the empirical approximation factor of
// Appro against the lower bound on realistic dense instances; it must stay
// far below the theoretical guarantee.
func TestApproEmpiricalQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	worst := 0.0
	for trial := 0; trial < 6; trial++ {
		n := 200 + rng.Intn(600)
		in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, core.Request{
				Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
				Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			})
		}
		s, err := core.ApproPlanner{}.Plan(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		lb := Compute(in)
		if lb.Value <= 0 {
			t.Fatal("zero lower bound on non-trivial instance")
		}
		ratio := s.Longest / lb.Value
		if ratio > worst {
			worst = ratio
		}
		ana, err := core.Analyze(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > ana.Ratio {
			t.Fatalf("trial %d: empirical factor %.2f exceeds theoretical guarantee %.2f",
				trial, ratio, ana.Ratio)
		}
	}
	t.Logf("worst empirical Appro/lower-bound factor: %.3f", worst)
	if worst > 6 {
		t.Errorf("empirical factor %.2f unexpectedly high (regression?)", worst)
	}
}

// packQuadratic is the all-pairs reference for pack: each candidate, in
// stable decreasing-duration order, is compared against every request
// kept so far.
func packQuadratic(in *core.Instance) []int {
	order := make([]int, len(in.Requests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		return in.Requests[order[a]].Duration > in.Requests[order[c]].Duration
	})
	var packed []int
	for _, i := range order {
		ok := true
		for _, j := range packed {
			if geom.Dist(in.Requests[i].Pos, in.Requests[j].Pos) <= 2*in.Gamma {
				ok = false
				break
			}
		}
		if ok {
			packed = append(packed, i)
		}
	}
	return packed
}

// shrunkenPrim is a dense O(n^2) Prim over the complete graph on pts with
// the shrunken weights max(0, d-2*gamma) themselves, so it checks the
// travel bound without relying on the argument that a Euclidean MST is
// also minimal under them. It returns the tree's total weight.
func shrunkenPrim(pts []geom.Point, gamma float64) float64 {
	n := len(pts)
	dist := make([]float64, n)
	inTree := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	total := 0.0
	for iter := 0; iter < n; iter++ {
		best := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		inTree[best] = true
		total += dist[best]
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			w := geom.Dist(pts[best], pts[v]) - 2*gamma
			if w < 0 {
				w = 0
			}
			if w < dist[v] {
				dist[v] = w
			}
		}
	}
	return total
}

// computeReference recomputes every bound with the quadratic packing and
// the dense shrunken-weight Prim.
func computeReference(in *core.Instance) (Bound, []int) {
	var b Bound
	for _, r := range in.Requests {
		reach := geom.Dist(in.Depot, r.Pos) - in.Gamma
		if reach < 0 {
			reach = 0
		}
		if v := 2*reach/in.Speed + r.Duration; v > b.Farthest {
			b.Farthest = v
		}
	}
	packed := packQuadratic(in)
	b.PackingSize = len(packed)
	work := 0.0
	pts := []geom.Point{in.Depot}
	for _, i := range packed {
		work += in.Requests[i].Duration
		pts = append(pts, in.Requests[i].Pos)
	}
	b.PackingWork = work / float64(in.K)
	travel := shrunkenPrim(pts, in.Gamma)
	if hull := geom.HullPerimeter(pts) - 2*math.Pi*in.Gamma; hull > travel {
		travel = hull
	}
	b.PackingTravel = travel / in.Speed / float64(in.K)
	b.Value = math.Max(b.Farthest, b.PackingWork+b.PackingTravel)
	return b, packed
}

// closeRel reports whether a and b agree within 1e-9 relative.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestComputeMatchesQuadraticReference is the oracle suite of the
// grid packing and the sparse-MST travel bound: the packed set must be
// identical, order included; Farthest and PackingWork bit-identical; and
// PackingTravel and Value equal up to summation order.
func TestComputeMatchesQuadraticReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	dur := func() float64 { return (0.5 + rng.Float64()) * 3600 }
	uniform := func(n int, side, gamma float64) *core.Instance {
		in := &core.Instance{Depot: geom.Pt(side/2, side/2), Gamma: gamma, Speed: 1, K: 1 + rng.Intn(4)}
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, core.Request{
				Pos: geom.Pt(rng.Float64()*side, rng.Float64()*side), Duration: dur(),
			})
		}
		return in
	}
	type tc struct {
		name string
		in   *core.Instance
	}
	var cases []tc
	for i := 0; i < 30; i++ {
		side := 5 + rng.Float64()*300
		gamma := []float64{2.7, 0.5, 8, rng.Float64() * 20}[i%4]
		cases = append(cases, tc{fmt.Sprintf("random-%d", i), uniform(1+rng.Intn(500), side, gamma)})
	}
	for _, gamma := range []float64{2.7, 1, 0.3} {
		// Requests exactly 2*gamma apart: every lattice neighbor sits on
		// the packing predicate's boundary.
		in := &core.Instance{Depot: geom.Pt(0, 0), Gamma: gamma, Speed: 1, K: 2}
		for x := 0; x < 15; x++ {
			for y := 0; y < 15; y++ {
				in.Requests = append(in.Requests, core.Request{
					Pos: geom.Pt(float64(x)*2*gamma, float64(y)*2*gamma), Duration: dur(),
				})
			}
		}
		cases = append(cases, tc{fmt.Sprintf("lattice-2gamma-%v", gamma), in})
	}
	collinear := &core.Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 3}
	diagonal := &core.Instance{Depot: geom.Pt(-3, -3), Gamma: 2.7, Speed: 2, K: 2}
	for i := 0; i < 300; i++ {
		collinear.Requests = append(collinear.Requests, core.Request{Pos: geom.Pt(rng.Float64()*400, 0), Duration: dur()})
		v := rng.Float64() * 200
		diagonal.Requests = append(diagonal.Requests, core.Request{Pos: geom.Pt(v, v), Duration: dur()})
	}
	cases = append(cases, tc{"collinear", collinear}, tc{"collinear-diagonal", diagonal})
	coincident := uniform(60, 50, 2.7)
	for i := 0; i < 200; i++ {
		coincident.Requests = append(coincident.Requests, core.Request{
			Pos: coincident.Requests[rng.Intn(60)].Pos, Duration: dur(),
		})
	}
	cases = append(cases, tc{"coincident", coincident})
	for _, n := range []int{1, 2, 3, 250} {
		in := uniform(n, 40, 0)
		for i := 0; i < n/4; i++ {
			in.Requests = append(in.Requests, core.Request{Pos: in.Requests[rng.Intn(n)].Pos, Duration: dur()})
		}
		cases = append(cases, tc{fmt.Sprintf("gamma0-%d", n), in})
	}
	for i, gamma := range []float64{2.7, 0} {
		in := uniform(200, 60, gamma)
		in.Depot = in.Requests[17].Pos
		cases = append(cases, tc{fmt.Sprintf("depot-on-request-%d", i), in})
	}
	// Radii at the float extremes: an infinite or overflowing 2*gamma
	// must still see every pair, and a subnormal one coincident pairs.
	for _, gamma := range []float64{math.Inf(1), 1e308, 1e-200} {
		in := uniform(80, 30, gamma)
		in.Requests = append(in.Requests, core.Request{Pos: in.Requests[3].Pos, Duration: dur()})
		cases = append(cases, tc{fmt.Sprintf("gamma-%v", gamma), in})
	}

	// Requests on a line whose y coordinates differ only by rounding (0.3
	// against 0.1+0.2): grid cells sized by area alone came out near a
	// micrometre, and the MST's bridging search crossed ~1e14 of them.
	a, b := 0.1, 0.2 // variables: Go folds the constant sum to exactly 0.3
	nearLine := &core.Instance{Depot: geom.Pt(0, 0.3), Gamma: 2.7, Speed: 1, K: 1}
	for i := 1; i <= 60; i++ {
		y := 0.3
		if i%2 == 1 {
			y = a + b
		}
		nearLine.Requests = append(nearLine.Requests, core.Request{Pos: geom.Pt(50*float64(i), y), Duration: dur()})
	}
	cases = append(cases, tc{"near-collinear", nearLine})

	// Ties: with every duration equal the walk is the index order, and
	// -0 ties with +0 (-0 == +0) though their bits differ.
	equal := uniform(300, 60, 2.7)
	for i := range equal.Requests {
		equal.Requests[i].Duration = 3600
	}
	zeros := uniform(300, 60, 2.7)
	for i := range zeros.Requests {
		zeros.Requests[i].Duration = []float64{math.Copysign(0, -1), 0, 1800, 3600}[rng.Intn(4)]
	}
	latticeEqual := &core.Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 2}
	for x := 0; x < 15; x++ {
		for y := 0; y < 15; y++ {
			latticeEqual.Requests = append(latticeEqual.Requests, core.Request{
				Pos: geom.Pt(float64(x)*2*2.7, float64(y)*2*2.7), Duration: 3600,
			})
		}
	}
	cases = append(cases, tc{"equal-durations", equal}, tc{"signed-zero-durations", zeros},
		tc{"lattice-2gamma-equal-durations", latticeEqual})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantPacked := computeReference(c.in)
			if got := pack(c.in); !reflect.DeepEqual(got, wantPacked) {
				t.Fatalf("packed set differs:\ngot  %v\nwant %v", got, wantPacked)
			}
			got := Compute(c.in)
			if got.PackingSize != want.PackingSize || got.Farthest != want.Farthest || got.PackingWork != want.PackingWork {
				t.Fatalf("got %+v, want %+v", got, want)
			}
			if !closeRel(got.PackingTravel, want.PackingTravel) || !closeRel(got.Value, want.Value) {
				t.Fatalf("travel/value beyond 1e-9 relative: got %+v, want %+v", got, want)
			}
		})
	}
}

// FuzzPackMatchesQuadratic compares pack with the all-pairs packing,
// order included, on random, exact-2*gamma lattice and coincident
// geometry. Durations come from a small set that holds both signed
// zeros, so ties decide much of the order.
func FuzzPackMatchesQuadratic(f *testing.F) {
	f.Add(int64(1), uint8(120), 2.7, uint8(0))
	f.Add(int64(2), uint8(200), 1.0, uint8(1))
	f.Add(int64(3), uint8(150), 2.7, uint8(2))
	f.Add(int64(4), uint8(60), 0.0, uint8(2))
	f.Add(int64(5), uint8(90), 0.3, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, gamma float64, shape uint8) {
		if !(gamma >= 0 && gamma <= 1e4) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)
		side := 2*gamma*math.Sqrt(float64(n)) + 1
		cols := 1 + int(math.Sqrt(float64(n)))
		durations := []float64{math.Copysign(0, -1), 0, 1800, 3600, 3600 * (1 + rng.Float64())}
		in := &core.Instance{Depot: geom.Pt(0, 0), Gamma: gamma, Speed: 1, K: 1}
		for i := 0; i < n; i++ {
			p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
			switch shape % 3 {
			case 1:
				p = geom.Pt(float64(i%cols)*2*gamma, float64(i/cols)*2*gamma)
			case 2:
				if i > 0 && rng.Intn(4) != 0 {
					p = in.Requests[rng.Intn(i)].Pos
				}
			}
			in.Requests = append(in.Requests, core.Request{Pos: p, Duration: durations[rng.Intn(len(durations))]})
		}
		if got, want := pack(in), packQuadratic(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d gamma=%v shape=%d: packed set differs:\ngot  %v\nwant %v", n, gamma, shape%3, got, want)
		}
	})
}

// TestComputeAllocationBounded guards the near-linear bound against a
// return of the all-pairs edge list: at n=30,000 on the paper-density
// field (~4,500 packed requests, ~1e7 pairs) that list alone is over a
// gigabyte.
func TestComputeAllocationBounded(t *testing.T) {
	const n = 30000
	side := math.Sqrt(n / 0.12)
	rng := rand.New(rand.NewSource(1))
	in := &core.Instance{Depot: geom.Pt(side/2, side/2), Gamma: 2.7, Speed: 1, K: 4}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*side, rng.Float64()*side),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b := Compute(in)
	runtime.ReadMemStats(&m1)
	if b.PackingSize < 1000 {
		t.Fatalf("packing size %d; instance not at paper density", b.PackingSize)
	}
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	if mb >= 50 {
		t.Fatalf("Compute allocated %.1f MB at n=%d, want < 50 MB", mb, n)
	}
	t.Logf("Compute allocated %.1f MB at n=%d, %d packed", mb, n, b.PackingSize)
}

// computeAllocs is the measured allocation count of one Compute on the
// instance below (249 when every minimum spanning tree built a children
// list per vertex that Compute never reads). A count that grows with the
// packed requests fails here.
const computeAllocs = 60

func TestComputeAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < 1200; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}
	allocs := testing.AllocsPerRun(5, func() { Compute(in) })
	const ceiling = 1.25 * computeAllocs
	t.Logf("%.0f allocations per Compute (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Compute made %.0f allocations at n=1200; the ceiling is %.0f", allocs, ceiling)
	}
}
