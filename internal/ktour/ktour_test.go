package ktour

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tsp"
)

func randInput(rng *rand.Rand, n, k int) Input {
	in := Input{
		Depot:   geom.Pt(50, 50),
		Nodes:   make([]geom.Point, n),
		Service: make([]float64, n),
		Speed:   1,
		K:       k,
	}
	for i := range in.Nodes {
		in.Nodes[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		in.Service[i] = rng.Float64() * 3600
	}
	return in
}

// checkPartition verifies that the K tours are node-disjoint and cover all
// nodes, and that reported delays match TourDelay.
func checkPartition(t *testing.T, in Input, sol *Solution) {
	t.Helper()
	if len(sol.Tours) != in.K || len(sol.Delays) != in.K {
		t.Fatalf("got %d tours, %d delays, want %d", len(sol.Tours), len(sol.Delays), in.K)
	}
	var all []int
	for k, tour := range sol.Tours {
		all = append(all, tour...)
		want := TourDelay(in, tour)
		if math.Abs(sol.Delays[k]-want) > 1e-6 {
			t.Errorf("tour %d delay = %v, recompute = %v", k, sol.Delays[k], want)
		}
		if sol.Delays[k] > sol.Longest+1e-9 {
			t.Errorf("tour %d delay %v exceeds Longest %v", k, sol.Delays[k], sol.Longest)
		}
	}
	sort.Ints(all)
	if len(all) != len(in.Nodes) {
		t.Fatalf("tours cover %d nodes, want %d", len(all), len(in.Nodes))
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("coverage is not a partition: sorted nodes %v", all)
		}
	}
}

func TestMinMaxValidation(t *testing.T) {
	base := randInput(rand.New(rand.NewSource(1)), 5, 2)
	tests := []struct {
		name   string
		mutate func(*Input)
	}{
		{"zero K", func(in *Input) { in.K = 0 }},
		{"negative K", func(in *Input) { in.K = -1 }},
		{"zero speed", func(in *Input) { in.Speed = 0 }},
		{"negative speed", func(in *Input) { in.Speed = -2 }},
		{"service length mismatch", func(in *Input) { in.Service = in.Service[:2] }},
		{"negative service", func(in *Input) { in.Service[0] = -1 }},
		{"NaN service", func(in *Input) { in.Service[0] = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := base
			in.Service = append([]float64(nil), base.Service...)
			tt.mutate(&in)
			if _, err := MinMax(context.Background(), in); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestNonFiniteCoordinates checks that a NaN or infinite coordinate
// cannot hang the kernels: a direct TwoOpt call over depot + nodes
// returns, and MinMax rejects the input, naming the point.
func TestNonFiniteCoordinates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		at   int // index into depot + nodes
		p    geom.Point
		want string
	}{
		{"NaN x at 0", 0, geom.Pt(nan, 1), "depot"},
		{"NaN y at 0", 0, geom.Pt(1, nan), "depot"},
		{"+Inf at 4", 4, geom.Pt(inf, 1), "node[3]"},
		{"-Inf at 0", 0, geom.Pt(-inf, 1), "depot"},
		{"NaN x at 4", 4, geom.Pt(nan, 1), "node[3]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10), geom.Pt(5, 5)}
			pts[tc.at] = tc.p
			done := make(chan error, 1)
			go func() {
				tour := tsp.Tour{Order: []int{0, 1, 2, 3, 4}}
				tsp.TwoOpt(&tour, pts, 0)
				_, err := MinMax(context.Background(), Input{Depot: pts[0], Nodes: pts[1:], Speed: 1, K: 2})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("MinMax error %v, want one naming %s", err, tc.want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("TwoOpt or MinMax did not return within 2 s")
			}
		})
	}
}

func TestMinMaxEmpty(t *testing.T) {
	in := Input{Depot: geom.Pt(0, 0), Speed: 1, K: 3}
	sol, err := MinMax(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Longest != 0 {
		t.Errorf("Longest = %v, want 0", sol.Longest)
	}
	for k, tour := range sol.Tours {
		if len(tour) != 0 {
			t.Errorf("tour %d = %v, want empty", k, tour)
		}
	}
}

func TestMinMaxSingleNode(t *testing.T) {
	in := Input{
		Depot:   geom.Pt(0, 0),
		Nodes:   []geom.Point{geom.Pt(3, 4)},
		Service: []float64{7},
		Speed:   1,
		K:       2,
	}
	sol, err := MinMax(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, in, sol)
	if math.Abs(sol.Longest-(5+7+5)) > 1e-9 {
		t.Errorf("Longest = %v, want 17", sol.Longest)
	}
}

func TestMinMaxPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(60)
		k := 1 + rng.Intn(5)
		in := randInput(rng, n, k)
		sol, err := MinMax(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, in, sol)
	}
}

func TestMinMaxMoreVehiclesNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randInput(rng, 40, 1)
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		in.K = k
		sol, err := MinMax(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		// Allow tiny slack: the grand tour is identical, so splitting into
		// more parts can only reduce the max segment.
		if sol.Longest > prev+1e-6 {
			t.Errorf("K=%d: longest %v > K=%d longest %v", k, sol.Longest, k-1, prev)
		}
		prev = sol.Longest
	}
}

func TestMinMaxSymmetricSplit(t *testing.T) {
	// Two clusters symmetric about the depot: with K=2 each vehicle should
	// take one side, roughly halving the K=1 delay.
	in := Input{
		Depot: geom.Pt(0, 0),
		Nodes: []geom.Point{
			geom.Pt(10, 0), geom.Pt(11, 0), geom.Pt(10, 1),
			geom.Pt(-10, 0), geom.Pt(-11, 0), geom.Pt(-10, 1),
		},
		Service: make([]float64, 6),
		Speed:   1,
		K:       2,
	}
	one := in
	one.K = 1
	sol1, err := MinMax(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	sol2, err := MinMax(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Longest > 0.75*sol1.Longest {
		t.Errorf("K=2 longest %v not much below K=1 longest %v", sol2.Longest, sol1.Longest)
	}
}

// TestMinMaxTimesBalancePassAsTwoOpt pins the span attribution inside
// kminmax: the grand-tour refinement and each tour's balance-pass 2-opt
// record kminmax/2opt (1+K spans when every tour has >= 3 nodes), and the
// split search records kminmax/split once.
func TestMinMaxTimesBalancePassAsTwoOpt(t *testing.T) {
	const k = 3
	in := randInput(rand.New(rand.NewSource(17)), 60, k)
	tr := obs.New()
	sol, err := MinMax(obs.WithTracer(context.Background(), tr), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, tour := range sol.Tours {
		if len(tour) < 3 {
			t.Fatalf("tour %d has %d nodes; the case needs >= 3 per tour", i, len(tour))
		}
	}
	counts := map[string]int64{}
	for _, st := range tr.Report().Stages {
		counts[st.Name] = st.Count
	}
	if got := counts[obs.StageKMinMaxTwoOpt]; got != 1+k {
		t.Errorf("kminmax/2opt recorded %d spans, want %d", got, 1+k)
	}
	if got := counts[obs.StageKMinMaxSplit]; got != 1 {
		t.Errorf("kminmax/split recorded %d spans, want 1", got)
	}
}

func TestTourDelayHandComputed(t *testing.T) {
	in := Input{
		Depot:   geom.Pt(0, 0),
		Nodes:   []geom.Point{geom.Pt(0, 10), geom.Pt(10, 10)},
		Service: []float64{100, 200},
		Speed:   2,
	}
	// depot->n0: 10/2=5, service 100, n0->n1: 10/2=5, service 200,
	// n1->depot: sqrt(200)/2.
	want := 5.0 + 100 + 5 + 200 + math.Sqrt(200)/2
	if got := TourDelay(in, []int{0, 1}); math.Abs(got-want) > 1e-9 {
		t.Errorf("TourDelay = %v, want %v", got, want)
	}
	if got := TourDelay(in, nil); got != 0 {
		t.Errorf("empty tour delay = %v", got)
	}
}

func TestSplitAtTargetMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	in := randInput(rng, 30, 1)
	order := GrandTourOrder(context.Background(), in)
	l := tourLegs(in, order)
	full := TourDelay(in, order)
	prevParts := l.split(full/16, nil)
	for _, f := range []float64{8, 4, 2, 1} {
		parts := l.split(full/f, nil)
		if parts > prevParts {
			t.Errorf("target up, parts went %d -> %d", prevParts, parts)
		}
		prevParts = parts
	}
	if got := l.split(full+1, nil); got != 1 {
		t.Errorf("full-delay target should need 1 part, got %d", got)
	}
}

// TestSplitMatchesReference checks the one split loop over precomputed
// legs against the two loops it replaced, which recompute every leg:
// the same tour count at every probe of a dense target sweep, and the
// same cut positions, on uniform, lattice, duplicate, collinear and
// far-clustered nodes, with and without service times.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := map[string]Input{
		"uniform":    randInput(rng, 200, 3),
		"no-service": {Depot: geom.Pt(3, -4), Nodes: randInput(rng, 150, 4).Nodes, Speed: 1.7, K: 4},
	}
	lattice := randInput(rng, 144, 2)
	for i := range lattice.Nodes {
		lattice.Nodes[i] = geom.Pt(float64(i%12)*2.5, float64(i/12)*2.5)
		lattice.Service[i] = float64(1+i%5) * 900
	}
	cases["lattice"] = lattice
	dup := randInput(rng, 60, 2)
	for i := range dup.Nodes {
		dup.Nodes[i] = dup.Nodes[i/6]
	}
	cases["duplicates"] = dup
	line := randInput(rng, 80, 3)
	for i := range line.Nodes {
		line.Nodes[i].Y = 50
	}
	cases["collinear"] = line
	far := randInput(rng, 90, 5)
	for i := range far.Nodes {
		far.Nodes[i] = far.Nodes[i].Add(geom.Pt(float64(i%3)*1e5, 0))
	}
	cases["far-clusters"] = far
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			order := GrandTourOrder(context.Background(), in)
			l := tourLegs(in, order)
			full := TourDelay(in, order)
			ends := make([]int, len(order))
			for step := 0; step <= 400; step++ {
				target := full * float64(step) / 400
				want := splitAtTarget(in, order, target)
				if got := splitCountAtTarget(in, order, target); got != len(want) {
					t.Fatalf("references disagree at target %v: %d vs %d tours", target, got, len(want))
				}
				parts := l.split(target, ends)
				if parts != len(want) {
					t.Fatalf("target %v: %d tours, reference %d", target, parts, len(want))
				}
				start := 0
				for p, part := range want {
					if ends[p]-start != len(part) || order[start] != part[0] {
						t.Fatalf("target %v: tour %d is order[%d:%d], reference starts at node %d with %d nodes",
							target, p, start, ends[p], part[0], len(part))
					}
					start = ends[p]
				}
			}
		})
	}
}

func TestMinMaxNearOptimalOnLine(t *testing.T) {
	// 4 equidistant nodes on a line through the depot, no service time.
	// Optimal for K=2 is one vehicle per side: delay 2*20=40.
	in := Input{
		Depot: geom.Pt(0, 0),
		Nodes: []geom.Point{
			geom.Pt(10, 0), geom.Pt(20, 0), geom.Pt(-10, 0), geom.Pt(-20, 0),
		},
		Speed: 1,
		K:     2,
	}
	sol, err := MinMax(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, in, sol)
	if sol.Longest > 40*1.5+1e-9 {
		t.Errorf("Longest = %v, optimal is 40", sol.Longest)
	}
}

func BenchmarkMinMax500(b *testing.B) {
	in := randInput(rand.New(rand.NewSource(1)), 500, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinMax(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}
