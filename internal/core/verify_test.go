package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
)

// handSchedule builds a minimal feasible schedule by hand for a two-sensor
// instance with disjoint coverage.
func handInstance() *Instance {
	return &Instance{
		Depot: geom.Pt(0, 0),
		Requests: []Request{
			{Pos: geom.Pt(10, 0), Duration: 100},
			{Pos: geom.Pt(-10, 0), Duration: 50},
		},
		Gamma: 2.7,
		Speed: 1,
		K:     2,
	}
}

func handSchedule() *Schedule {
	return &Schedule{
		Tours: []Tour{
			{Stops: []Stop{{Node: 0, Arrive: 10, Duration: 100, Covers: []int{0}}}, Delay: 120},
			{Stops: []Stop{{Node: 1, Arrive: 10, Duration: 50, Covers: []int{1}}}, Delay: 70},
		},
		Longest: 120,
	}
}

func hasKind(vs []Violation, kind string) bool {
	for _, v := range vs {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

func TestVerifyAcceptsFeasible(t *testing.T) {
	in := handInstance()
	if vs := Verify(in, handSchedule()); len(vs) != 0 {
		t.Fatalf("violations on feasible schedule: %v", vs)
	}
}

func TestVerifyCatchesEachViolation(t *testing.T) {
	in := handInstance()
	tests := []struct {
		name   string
		mutate func(*Schedule)
		kind   string
		absent string // a kind the mutation must not produce
	}{
		{"uncovered", func(s *Schedule) { s.Tours[1].Stops[0].Covers = nil }, "uncovered", ""},
		{"double cover", func(s *Schedule) { s.Tours[1].Stops[0].Covers = []int{0, 1} }, "double-cover", ""},
		{"out of range cover", func(s *Schedule) {
			s.Tours[0].Stops[0].Covers = []int{0, 1} // sensor 1 is 20 m away
			s.Tours[1].Stops[0].Covers = nil
		}, "out-of-range", ""},
		{"bad node", func(s *Schedule) { s.Tours[0].Stops[0].Node = 99 }, "bad-node", ""},
		{"bad node in two tours", func(s *Schedule) {
			s.Tours[0].Stops[0].Node = -1
			s.Tours[1].Stops[0].Node = -1
		}, "bad-node", "shared-sojourn"},
		{"bad cover index", func(s *Schedule) { s.Tours[0].Stops[0].Covers = []int{0, 42} }, "bad-cover", ""},
		{"arrives too early", func(s *Schedule) { s.Tours[0].Stops[0].Arrive = 3 }, "time-travel", ""},
		{"undercharge", func(s *Schedule) { s.Tours[0].Stops[0].Duration = 1 }, "undercharge", ""},
		{"delay understated", func(s *Schedule) { s.Tours[0].Delay = 50 }, "delay-understated", ""},
		{"wrong tour count", func(s *Schedule) { s.Tours = s.Tours[:1] }, "tour-count", ""},
		{"shared sojourn", func(s *Schedule) {
			s.Tours[1].Stops = append(s.Tours[1].Stops, Stop{Node: 0, Arrive: 200, Duration: 0})
		}, "shared-sojourn", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := handSchedule()
			tt.mutate(s)
			vs := Verify(in, s)
			if !hasKind(vs, tt.kind) {
				t.Errorf("want violation %q, got %v", tt.kind, vs)
			}
			if tt.absent != "" && hasKind(vs, tt.absent) {
				t.Errorf("spurious violation %q in %v", tt.absent, vs)
			}
		})
	}
}

// TestVerifyDoubleCoverAttribution is the regression test for the
// double-cover misattribution bug: Verify used to overwrite attributed[u]
// with each later covering stop, so the radius check and the uncovered
// accounting ran against the LAST covering stop instead of the one the
// request is actually attributed to (the first). The fixed verifier keeps
// the first attribution, reports every extra covering stop as its own
// double-cover violation, and range-checks only the attributing stop.
func TestVerifyDoubleCoverAttribution(t *testing.T) {
	// Geometry: stops at nodes 0 (x=10) and 1 (x=13), gamma 2.7. The
	// contested request 2 moves per case; request 3 (x=16) hosts a third
	// stop for the triple-cover case. Charging intervals are disjoint so
	// no simultaneous-charge noise mixes into the counts.
	build := func(contestedX float64, covers0, covers1, covers2 []int) (*Instance, *Schedule) {
		in := &Instance{
			Depot: geom.Pt(0, 0),
			Requests: []Request{
				{Pos: geom.Pt(10, 0), Duration: 100},
				{Pos: geom.Pt(13, 0), Duration: 100},
				{Pos: geom.Pt(contestedX, 0), Duration: 50},
			},
			Gamma: 2.7,
			Speed: 1,
			K:     2,
		}
		t1 := Tour{Stops: []Stop{{Node: 0, Arrive: 10, Duration: 100, Covers: covers0}}, Delay: 120}
		t2 := Tour{Stops: []Stop{{Node: 1, Arrive: 115, Duration: 100, Covers: covers1}}, Delay: 228}
		if covers2 != nil {
			// A third stop needs a third sojourn sensor; it rides in
			// tour 2 after the node-1 stop.
			in.Requests = append(in.Requests, Request{Pos: geom.Pt(16, 0), Duration: 100})
			t2.Stops = append(t2.Stops, Stop{Node: 3, Arrive: 220, Duration: 100, Covers: covers2})
			t2.Delay = 336
		}
		s := &Schedule{Tours: []Tour{t1, t2}, Longest: t2.Delay}
		return in, s
	}
	count := func(vs []Violation, kind string) int {
		n := 0
		for _, v := range vs {
			if v.Kind == kind {
				n++
			}
		}
		return n
	}
	tests := []struct {
		name                string
		contestedX          float64
		covers0, covers1    []int
		covers2             []int
		wantDouble          int
		wantOutOfRange      int
		wantDetailFragments []string
	}{
		{
			// Both stops can reach request 2: one extra cover, no range
			// violation anywhere.
			name:       "both stops in range",
			contestedX: 11.5,
			covers0:    []int{0, 2}, covers1: []int{1, 2},
			wantDouble: 1, wantOutOfRange: 0,
			wantDetailFragments: []string{"request 2 is attributed to stop 0", "tour 1 stop 0 (node 1)"},
		},
		{
			// The extra (second) stop cannot reach request 2. The old
			// verifier blamed stop 1 with a bogus out-of-range; the
			// attribution to stop 0 is in range, so only the double-cover
			// remains.
			name:       "extra stop out of range",
			contestedX: 9,
			covers0:    []int{0, 2}, covers1: []int{1, 2},
			wantDouble: 1, wantOutOfRange: 0,
			wantDetailFragments: []string{"request 2 is attributed to stop 0"},
		},
		{
			// The attributing (first) stop cannot reach request 2: the
			// range violation must blame stop 0, alongside the extra
			// cover by stop 1.
			name:       "attributing stop out of range",
			contestedX: 15,
			covers0:    []int{0, 2}, covers1: []int{1, 2},
			wantDouble: 1, wantOutOfRange: 1,
			wantDetailFragments: []string{"from stop 0", "request 2 is attributed to stop 0"},
		},
		{
			// Three stops cover request 2: every extra stop is reported,
			// not just "two stops".
			name:       "triple cover",
			contestedX: 11.5,
			covers0:    []int{0, 2}, covers1: []int{1, 2}, covers2: []int{3, 2},
			wantDouble: 2, wantOutOfRange: 0,
			wantDetailFragments: []string{"tour 1 stop 0 (node 1)", "tour 1 stop 1 (node 3)"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in, s := build(tt.contestedX, tt.covers0, tt.covers1, tt.covers2)
			vs := Verify(in, s)
			if got := count(vs, "double-cover"); got != tt.wantDouble {
				t.Errorf("double-cover count = %d, want %d (%v)", got, tt.wantDouble, vs)
			}
			if got := count(vs, "out-of-range"); got != tt.wantOutOfRange {
				t.Errorf("out-of-range count = %d, want %d (%v)", got, tt.wantOutOfRange, vs)
			}
			if count(vs, "uncovered") != 0 {
				t.Errorf("attributed request reported uncovered: %v", vs)
			}
			all := ""
			for _, v := range vs {
				all += v.String() + "\n"
			}
			for _, frag := range tt.wantDetailFragments {
				if !strings.Contains(all, frag) {
					t.Errorf("violations missing %q:\n%s", frag, all)
				}
			}
		})
	}
}

func TestVerifyCatchesSimultaneousCharge(t *testing.T) {
	// Two sojourn locations 3 m apart with a sensor in the shared lens:
	// charging both at the same time must be flagged.
	in := &Instance{
		Depot: geom.Pt(0, 0),
		Requests: []Request{
			{Pos: geom.Pt(10, 0), Duration: 100},  // stop A
			{Pos: geom.Pt(13, 0), Duration: 100},  // stop B
			{Pos: geom.Pt(11.5, 0), Duration: 50}, // shared sensor
		},
		Gamma: 2.7,
		Speed: 1,
		K:     2,
	}
	s := &Schedule{
		Tours: []Tour{
			{Stops: []Stop{{Node: 0, Arrive: 10, Duration: 100, Covers: []int{0, 2}}}, Delay: 120},
			{Stops: []Stop{{Node: 1, Arrive: 13, Duration: 100, Covers: []int{1}}}, Delay: 126},
		},
	}
	vs := Verify(in, s)
	if !hasKind(vs, "simultaneous-charge") {
		t.Fatalf("overlapping intervals with shared sensor not flagged: %v", vs)
	}
	// Shift tour 2 after tour 1 finishes: no more overlap.
	s.Tours[1].Stops[0].Arrive = 111
	s.Tours[1].Delay = 224
	if vs := Verify(in, s); hasKind(vs, "simultaneous-charge") {
		t.Fatalf("disjoint intervals flagged: %v", vs)
	}
}

func TestExecuteResolvesConflicts(t *testing.T) {
	// Same shared-lens geometry; hand the executor a deliberately
	// conflicting plan and check it serializes the two stops.
	in := &Instance{
		Depot: geom.Pt(0, 0),
		Requests: []Request{
			{Pos: geom.Pt(10, 0), Duration: 100},
			{Pos: geom.Pt(13, 0), Duration: 100},
			{Pos: geom.Pt(11.5, 0), Duration: 50},
		},
		Gamma: 2.7,
		Speed: 1,
		K:     2,
	}
	planned := &Schedule{
		Tours: []Tour{
			{Stops: []Stop{{Node: 0, Duration: 100, Covers: []int{0, 2}}}},
			{Stops: []Stop{{Node: 1, Duration: 100, Covers: []int{1}}}},
		},
	}
	recomputeTourTimes(in, &planned.Tours[0])
	recomputeTourTimes(in, &planned.Tours[1])
	exec := Execute(context.Background(), in, planned)
	if vs := Verify(in, exec); len(vs) != 0 {
		t.Fatalf("executed schedule infeasible: %v", vs)
	}
	if exec.WaitTime <= 0 {
		t.Error("expected a conflict wait")
	}
}

func TestExecuteNoConflictNoWait(t *testing.T) {
	in := handInstance()
	planned := handSchedule()
	exec := Execute(context.Background(), in, planned)
	if exec.WaitTime != 0 {
		t.Errorf("WaitTime = %v, want 0", exec.WaitTime)
	}
	if exec.Longest != planned.Longest {
		t.Errorf("Longest = %v, want %v", exec.Longest, planned.Longest)
	}
}

func TestExecutePreservesTourOrderAndCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := paperInstance(rng, 100, 3)
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec := Execute(context.Background(), in, s)
	for k := range s.Tours {
		if len(exec.Tours[k].Stops) != len(s.Tours[k].Stops) {
			t.Fatalf("tour %d: stop count changed", k)
		}
		for i := range s.Tours[k].Stops {
			if exec.Tours[k].Stops[i].Node != s.Tours[k].Stops[i].Node {
				t.Fatalf("tour %d: stop order changed", k)
			}
			if exec.Tours[k].Stops[i].Arrive+1e-9 < s.Tours[k].Stops[i].Arrive {
				t.Fatalf("tour %d stop %d: executed arrival earlier than planned", k, i)
			}
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: "uncovered", Detail: "request 3"}
	if got := v.String(); !strings.Contains(got, "uncovered") || !strings.Contains(got, "request 3") {
		t.Errorf("String = %q", got)
	}
}

// overlapViolationsQuadratic is the all-pairs reference for
// overlapViolations: every pair of stops is compared, in schedule order.
func overlapViolationsQuadratic(in *Instance, s *Schedule) []Violation {
	var out []Violation
	type flatStop struct {
		tour  int
		stop  Stop
		cover []int
	}
	grid := geom.NewGrid(in.Positions(), in.Gamma)
	var flat []flatStop
	for k, tour := range s.Tours {
		for _, stop := range tour.Stops {
			if stop.Node < 0 || stop.Node >= len(in.Requests) {
				continue
			}
			cs := grid.Neighbors(in.Requests[stop.Node].Pos, in.Gamma, nil)
			sort.Ints(cs)
			flat = append(flat, flatStop{tour: k, stop: stop, cover: cs})
		}
	}
	const eps = 1e-9
	for i := 0; i < len(flat); i++ {
		for j := i + 1; j < len(flat); j++ {
			a, b := flat[i], flat[j]
			if a.tour == b.tour {
				continue
			}
			if a.stop.Arrive >= b.stop.Finish()-eps || b.stop.Arrive >= a.stop.Finish()-eps {
				continue
			}
			if !intersectsSorted(a.cover, b.cover) {
				continue
			}
			out = append(out, Violation{
				Kind: "simultaneous-charge",
				Detail: fmt.Sprintf("tours %d and %d charge a shared sensor simultaneously: stops at nodes %d [%.2f,%.2f] and %d [%.2f,%.2f]",
					a.tour, b.tour, a.stop.Node, a.stop.Arrive, a.stop.Finish(), b.stop.Node, b.stop.Arrive, b.stop.Finish()),
			})
		}
	}
	return out
}

// overlapCase builds one instance and schedule for the overlap oracle.
// Positions are uniform on a side x side field, or (lattice) on a grid of
// spacing gamma so stops sit exactly 2*gamma apart and sensors exactly
// gamma from a stop; every fifth request duplicates an earlier position,
// so gamma = 0 still has shared sensors. mode picks the schedule: 0 is
// Appro's planned (unexecuted) schedule, 1 the executed schedule with
// perturbed arrival times, 2 a hostile random schedule with out-of-range
// nodes, sojourn locations reused across tours and negative times.
func overlapCase(t *testing.T, seed int64, n, k int, gamma, side float64, lattice bool, mode int) (*Instance, *Schedule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{Depot: geom.Pt(side/2, side/2), Gamma: gamma, Speed: 1, K: k}
	cols := 1 + int(math.Sqrt(float64(n)))
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		if lattice {
			p = geom.Pt(float64(i%cols)*gamma, float64(i/cols)*gamma)
		}
		if i > 0 && i%5 == 0 {
			p = in.Requests[rng.Intn(i)].Pos
		}
		in.Requests = append(in.Requests, Request{Pos: p, Duration: rng.Float64() * 3600})
	}
	if mode == 2 {
		s := &Schedule{Tours: make([]Tour, k)}
		for si := 0; si < 2*n; si++ {
			tour := &s.Tours[rng.Intn(k)]
			tour.Stops = append(tour.Stops, Stop{
				Node:     rng.Intn(n+6) - 3,
				Arrive:   rng.Float64()*2000 - 200,
				Duration: rng.Float64()*600 - 100,
			})
		}
		return in, s
	}
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatalf("Appro: %v", err)
	}
	if mode == 1 {
		s = Execute(context.Background(), in, s)
		for ti := range s.Tours {
			for si := range s.Tours[ti].Stops {
				st := &s.Tours[ti].Stops[si]
				if rng.Intn(2) == 0 {
					st.Arrive += (rng.Float64() - 0.5) * 2 * st.Duration
				}
			}
		}
	}
	return in, s
}

// checkOverlapOracle requires the grid-pruned overlap scan to report
// exactly the all-pairs reference's violations, order included, and
// returns how many there were.
func checkOverlapOracle(t *testing.T, seed int64, n, k int, gamma, side float64, lattice bool, mode int) int {
	t.Helper()
	in, s := overlapCase(t, seed, n, k, gamma, side, lattice, mode)
	got := overlapViolations(in, s)
	want := overlapViolationsQuadratic(in, s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d n=%d k=%d gamma=%v side=%v lattice=%v mode=%d: grid scan found %d violations, all-pairs %d\ngot  %v\nwant %v",
			seed, n, k, gamma, side, lattice, mode, len(got), len(want), got, want)
	}
	return len(want)
}

// TestOverlapMatchesQuadratic runs the overlap oracle over a fixed sweep
// of every schedule mode and geometry, and requires the sweep to produce
// violations at all, so the comparison is never vacuous.
func TestOverlapMatchesQuadratic(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 12; seed++ {
		for mode := 0; mode < 3; mode++ {
			for _, gamma := range []float64{2.7, 0, 10} {
				for _, lattice := range []bool{false, true} {
					total += checkOverlapOracle(t, seed, 40+int(seed)*10, 1+int(seed%4), gamma, 60, lattice, mode)
				}
			}
		}
	}
	if total < 500 {
		t.Fatalf("sweep found only %d violations; the oracle comparison is too weak", total)
	}
	t.Logf("%d violations matched", total)
}

// TestApproTerminates plans instances that once made Appro spin. Each
// plan runs on its own goroutine under a 5 s deadline, so a planner that
// never returns fails the test instead of hanging the suite, and each
// plan must verify clean.
//
//   - lattice-km: with coordinates in the kilometers, the 2-opt descent's
//     old absolute 1e-12 acceptance threshold lay below the rounding of
//     the move deltas, so a move and its reversal could both look
//     improving.
//   - near-collinear-*: requests on a line whose y coordinates differ
//     only by rounding (0.3 against the float sum 0.1+0.2) span a
//     bounding box of height ~5e-17, so grid cells sized by area alone
//     came out near a micrometre and one nearest-neighbor search walked
//     ~1e14 empty cells. Appro must plan it from one request
//     (MST-doubling over two points) up; the case name ends in the
//     grand-tour construction, MST-doubling.
//   - far-clusters: two 2,000-request clusters (sigma 20 m) 10 km apart
//     give the gamma grids far more cells than requests, so every stage
//     that queries them runs on hashed buckets.
func TestApproTerminates(t *testing.T) {
	type tc struct {
		name string
		in   *Instance
	}
	lattice, _ := overlapCase(t, -99, 90, 1, 5047.285714285714, 1070, true, 2) // mode 2: the instance, unplanned
	cases := []tc{{"lattice-km", lattice}}
	a, b := 0.1, 0.2 // variables: Go folds the constant sum to exactly 0.3
	for _, n := range []int{1, 2, 60} {
		in := &Instance{Depot: geom.Pt(0, 0.3), Gamma: 2.7, Speed: 1, K: 2}
		for i := 1; i <= n; i++ {
			y := 0.3
			if i%2 == 1 {
				y = a + b
			}
			in.Requests = append(in.Requests, Request{Pos: geom.Pt(50*float64(i), y), Duration: 600})
		}
		cases = append(cases, tc{fmt.Sprintf("near-collinear-%d/mst-doubling", n), in})
	}
	rng := rand.New(rand.NewSource(5))
	far := &Instance{Depot: geom.Pt(3000, 4000), Gamma: 2.7, Speed: 1, K: 4}
	for i := 0; i < 4000; i++ {
		c := geom.Pt(float64(i%2)*6000, float64(i%2)*8000)
		far.Requests = append(far.Requests, Request{
			Pos:      geom.Pt(c.X+rng.NormFloat64()*20, c.Y+rng.NormFloat64()*20),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}
	cases = append(cases, tc{"far-clusters", far})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			type result struct {
				s   *Schedule
				err error
			}
			done := make(chan result, 1)
			start := time.Now()
			go func() {
				s, err := Appro(context.Background(), c.in, Options{})
				done <- result{s, err}
			}()
			select {
			case r := <-done:
				if r.err != nil {
					t.Fatal(r.err)
				}
				if v := Verify(c.in, r.s); len(v) > 0 {
					t.Fatalf("%d violations, first %v", len(v), v[0])
				}
				t.Logf("planned in %v", time.Since(start))
			case <-time.After(5 * time.Second):
				t.Fatal("Appro still planning after 5 s")
			}
		})
	}
}

// FuzzOverlapMatchesQuadratic fuzzes the overlap oracle's instance shape,
// radius, geometry and schedule mode.
func FuzzOverlapMatchesQuadratic(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(2), 2.7, 60.0, false, uint8(0))
	f.Add(int64(2), uint8(80), uint8(3), 2.7, 40.0, false, uint8(1))
	f.Add(int64(3), uint8(50), uint8(4), 0.0, 20.0, false, uint8(2))
	f.Add(int64(4), uint8(30), uint8(1), 0.0, 5.0, true, uint8(2))
	f.Add(int64(5), uint8(100), uint8(2), 25.0, 30.0, true, uint8(2))
	f.Add(int64(-99), uint8(90), uint8(0), 5047.285714285714, 1070.0, true, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint8, gamma, side float64, lattice bool, modeRaw uint8) {
		if !(gamma >= 0 && gamma <= 1e4) || !(side > 0 && side <= 1e5) {
			t.Skip()
		}
		checkOverlapOracle(t, seed, int(nRaw%150), 1+int(kRaw%5), gamma, side, lattice, int(modeRaw%3))
	})
}

func TestIsOneToOne(t *testing.T) {
	one := &Schedule{Tours: []Tour{
		{Stops: []Stop{{Node: 3, Covers: []int{3}}}},
	}}
	if !isOneToOne(one) {
		t.Error("one-to-one schedule misclassified")
	}
	multi := &Schedule{Tours: []Tour{
		{Stops: []Stop{{Node: 3, Covers: []int{3, 4}}}},
	}}
	if isOneToOne(multi) {
		t.Error("multi-node schedule misclassified")
	}
}

// TestVerifySchemeCoincidentOneToOne charges two coincident sensors at
// the same time from two chargers, one sensor each. Point charging
// accepts it: directional chargers cannot interfere. Plain Verify, even
// at gamma = 0, sees two stops sharing a sensor and rejects it.
func TestVerifySchemeCoincidentOneToOne(t *testing.T) {
	in := &Instance{
		Depot: geom.Pt(0, 0),
		Requests: []Request{
			{Pos: geom.Pt(3, 4), Duration: 100},
			{Pos: geom.Pt(3, 4), Duration: 100},
		},
		Gamma: 2.7, Speed: 1, K: 2,
	}
	s := &Schedule{Longest: 110}
	for k := 0; k < 2; k++ {
		s.Tours = append(s.Tours, Tour{
			Stops: []Stop{{Node: k, Arrive: 5, Duration: 100, Covers: []int{k}}},
			Delay: 110,
		})
	}
	if vs := VerifyScheme(in, s); len(vs) != 0 {
		t.Fatalf("VerifyScheme rejected a one-to-one schedule on coincident sensors: %v", vs)
	}
	point := *in
	point.Gamma = 0
	vs := Verify(&point, s)
	if len(vs) != 1 || vs[0].Kind != "simultaneous-charge" {
		t.Fatalf("Verify at gamma=0 = %v, want exactly one simultaneous-charge", vs)
	}
}
