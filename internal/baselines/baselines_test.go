package baselines

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// allBaselines is one of each baseline planner, in the paper's order.
var allBaselines = []core.Planner{KEDF{}, NETWRAP{}, AA{}, KMinMax{}}

func randInstance(rng *rand.Rand, n, k int) *core.Instance {
	in := &core.Instance{
		Depot: geom.Pt(50, 50),
		Gamma: 2.7,
		Speed: 1,
		K:     k,
	}
	for i := 0; i < n; i++ {
		dur := (1.2 + 0.3*rng.Float64()) * 3600
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: dur,
			Lifetime: rng.Float64() * 7 * 86400,
		})
	}
	return in
}

// checkOneToOne verifies the structural invariants every one-to-one
// baseline must satisfy: each request is its own stop exactly once, tours
// are node-disjoint, times are physically consistent.
func checkOneToOne(t *testing.T, name string, in *core.Instance, s *core.Schedule) {
	t.Helper()
	if len(s.Tours) != in.K {
		t.Fatalf("%s: %d tours, want %d", name, len(s.Tours), in.K)
	}
	var seen []int
	for _, tour := range s.Tours {
		for _, st := range tour.Stops {
			if len(st.Covers) != 1 || st.Covers[0] != st.Node {
				t.Fatalf("%s: one-to-one stop must cover exactly its node, got %v at node %d",
					name, st.Covers, st.Node)
			}
			if math.Abs(st.Duration-in.Requests[st.Node].Duration) > 1e-9 {
				t.Fatalf("%s: stop duration %v != request duration", name, st.Duration)
			}
			seen = append(seen, st.Node)
		}
	}
	sort.Ints(seen)
	if len(seen) != len(in.Requests) {
		t.Fatalf("%s: %d stops for %d requests", name, len(seen), len(in.Requests))
	}
	for i, u := range seen {
		if u != i {
			t.Fatalf("%s: coverage is not a partition", name)
		}
	}
	// Verify time consistency with the point-charging view (gamma=0):
	// coincident-position overlaps aside, the core verifier checks
	// coverage radius, travel times and durations.
	point := *in
	point.Gamma = 0
	if vs := core.Verify(&point, s); len(vs) != 0 {
		t.Fatalf("%s: verifier violations: %v", name, vs[0])
	}
}

func TestAllBaselinesStructurallySound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		n := rng.Intn(80)
		k := 1 + rng.Intn(5)
		in := randInstance(rng, n, k)
		for _, p := range allBaselines {
			s, err := p.Plan(context.Background(), in)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			checkOneToOne(t, p.Name(), in, s)
		}
	}
}

// TestBaselinesOverflowingDistances plans 12 requests in clusters near
// ±1e308 and ±1.5e308, whose pairwise distances overflow float64. K-EDF's
// assignment costs are then +Inf, which its Hungarian assignment must
// reject with an error rather than loop on; every other baseline must
// make each request its own stop exactly once, so K-minMax's and AA's
// grand tours must reach every cluster.
func TestBaselinesOverflowingDistances(t *testing.T) {
	in := &core.Instance{Depot: geom.Pt(-1e308, 0), Gamma: 2.7, Speed: 1, K: 2}
	for i := range 12 {
		x := []float64{-1e308, 1e308, 1.5e308, -1.5e308}[i%4]
		in.Requests = append(in.Requests, core.Request{Pos: geom.Pt(x, float64(i%3)*1e307), Duration: 3600, Lifetime: 86400})
	}
	for _, p := range allBaselines {
		s, err := p.Plan(context.Background(), in)
		if _, kedf := p.(KEDF); kedf {
			if err == nil {
				t.Error("K-EDF planned with infinite assignment costs")
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		seen := make([]int, len(in.Requests))
		for _, tour := range s.Tours {
			for _, st := range tour.Stops {
				seen[st.Node]++
			}
		}
		for u, c := range seen {
			if c != 1 {
				t.Errorf("%s: request %d is planned %d times", p.Name(), u, c)
			}
		}
	}
}

func TestBaselinesEmptyInstance(t *testing.T) {
	in := &core.Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 2}
	for _, p := range allBaselines {
		s, err := p.Plan(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if s.Longest != 0 || s.NumStops() != 0 {
			t.Errorf("%s: empty instance gave %+v", p.Name(), s)
		}
	}
}

func TestBaselinesRejectInvalid(t *testing.T) {
	in := &core.Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 0, K: 2}
	for _, p := range allBaselines {
		if _, err := p.Plan(context.Background(), in); err == nil {
			t.Errorf("%s: invalid instance accepted", p.Name())
		}
	}
}

func TestKEDFOrdersByDeadline(t *testing.T) {
	// Three sensors, K=1: the most urgent (shortest lifetime) must be
	// visited first regardless of distance.
	in := &core.Instance{
		Depot: geom.Pt(0, 0),
		Requests: []core.Request{
			{Pos: geom.Pt(1, 0), Duration: 10, Lifetime: 9000},
			{Pos: geom.Pt(90, 0), Duration: 10, Lifetime: 100},
			{Pos: geom.Pt(2, 0), Duration: 10, Lifetime: 5000},
		},
		Gamma: 2.7, Speed: 1, K: 1,
	}
	s, err := KEDF{}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	got := []int{s.Tours[0].Stops[0].Node, s.Tours[0].Stops[1].Node, s.Tours[0].Stops[2].Node}
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit order = %v, want %v", got, want)
		}
	}
}

func TestKEDFAssignmentMinimizesTravel(t *testing.T) {
	// Two sensors with equal lifetimes, two chargers at the depot: each
	// charger should take the sensor on its own side... both start at the
	// depot, so the optimal assignment is the identity or swap — both
	// cost the same here; instead test a second group where positions
	// differ: after group 1, chargers sit at (10,0) and (-10,0); group 2
	// sensors at (12,0) and (-12,0) must go to the nearer charger.
	in := &core.Instance{
		Depot: geom.Pt(0, 0),
		Requests: []core.Request{
			{Pos: geom.Pt(10, 0), Duration: 10, Lifetime: 1},
			{Pos: geom.Pt(-10, 0), Duration: 10, Lifetime: 2},
			{Pos: geom.Pt(12, 0), Duration: 10, Lifetime: 3},
			{Pos: geom.Pt(-12, 0), Duration: 10, Lifetime: 4},
		},
		Gamma: 2.7, Speed: 1, K: 2,
	}
	s, err := KEDF{}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Whichever charger got sensor 0 must also get sensor 2.
	for _, tour := range s.Tours {
		has := map[int]bool{}
		for _, st := range tour.Stops {
			has[st.Node] = true
		}
		if has[0] && !has[2] || has[2] && !has[0] {
			t.Fatalf("travel-minimizing assignment violated: %+v", s.Tours)
		}
	}
}

func TestKEDFLargeK(t *testing.T) {
	// The Hungarian assignment has no practical K limit; a fleet larger
	// than the request set must still produce a valid partition.
	in := randInstance(rand.New(rand.NewSource(1)), 30, 2)
	in.K = 12
	s, err := KEDF{}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	checkOneToOne(t, "K-EDF", in, s)
}

func TestNETWRAPPrefersCloseAndUrgent(t *testing.T) {
	// One charger; sensor A is near with long lifetime, sensor B far with
	// short lifetime. With heavy lifetime weight, B goes first; with
	// heavy travel weight, A goes first.
	in := &core.Instance{
		Depot: geom.Pt(0, 0),
		Requests: []core.Request{
			{Pos: geom.Pt(5, 0), Duration: 10, Lifetime: 3000},
			{Pos: geom.Pt(80, 0), Duration: 10, Lifetime: 10},
		},
		Gamma: 2.7, Speed: 1, K: 1,
	}
	s, err := NETWRAP{WTravel: 0.001, WLife: 1}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tours[0].Stops[0].Node != 1 {
		t.Error("lifetime-weighted NETWRAP should pick the urgent sensor first")
	}
	s, err = NETWRAP{WTravel: 1, WLife: 0.001}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tours[0].Stops[0].Node != 0 {
		t.Error("travel-weighted NETWRAP should pick the near sensor first")
	}
}

func TestAAGroupsAreSpatial(t *testing.T) {
	// Two far-apart clusters, K=2: AA must not mix them in one tour.
	rng := rand.New(rand.NewSource(9))
	in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < 20; i++ {
		base := geom.Pt(5, 5)
		if i >= 10 {
			base = geom.Pt(95, 95)
		}
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(base.X+rng.Float64(), base.Y+rng.Float64()),
			Duration: 100,
		})
	}
	s, err := AA{Seed: 1}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for k, tour := range s.Tours {
		lowCluster := 0
		for _, st := range tour.Stops {
			if st.Node < 10 {
				lowCluster++
			}
		}
		if lowCluster != 0 && lowCluster != len(tour.Stops) {
			t.Fatalf("tour %d mixes clusters: %d of %d", k, lowCluster, len(tour.Stops))
		}
	}
}

func TestKMinMaxBeatsAAOnUnbalancedClusters(t *testing.T) {
	// One dense far cluster and one sparse near cluster: AA assigns one
	// charger per cluster regardless of load; K-minMax balances delays.
	in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 30; i++ { // heavy cluster
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(90+rng.Float64()*2, 90+rng.Float64()*2),
			Duration: 3600,
		})
	}
	for i := 0; i < 3; i++ { // light cluster
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(10+rng.Float64()*2, 10+rng.Float64()*2),
			Duration: 3600,
		})
	}
	aa, err := AA{}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	km, err := KMinMax{}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if km.Longest >= aa.Longest {
		t.Errorf("K-minMax longest %v should beat AA %v on unbalanced clusters", km.Longest, aa.Longest)
	}
}

func TestPlannerNames(t *testing.T) {
	want := map[string]bool{"K-EDF": true, "NETWRAP": true, "AA": true, "K-minMax": true}
	for _, p := range allBaselines {
		if !want[p.Name()] {
			t.Errorf("unexpected planner name %q", p.Name())
		}
		delete(want, p.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing planners: %v", want)
	}
}

func TestApproPlannerSatisfiesInterface(t *testing.T) {
	var p core.Planner = core.ApproPlanner{}
	if p.Name() != "Appro" {
		t.Errorf("Name = %q", p.Name())
	}
	in := randInstance(rand.New(rand.NewSource(2)), 40, 2)
	s, err := p.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if vs := core.Verify(in, s); len(vs) != 0 {
		t.Fatalf("Appro planner violations: %v", vs[0])
	}
}
