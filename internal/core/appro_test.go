package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// paperInstance builds a random instance with the paper's parameters:
// 100x100 field, depot at center, gamma 2.7 m, speed 1 m/s, charge
// durations for sensors that requested at ~20% residual capacity
// (t_v between 1.2 h and 1.5 h at eta = 2 W).
func paperInstance(rng *rand.Rand, n, k int) *Instance {
	in := &Instance{
		Depot: geom.Pt(50, 50),
		Gamma: 2.7,
		Speed: 1,
		K:     k,
	}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}
	return in
}

func TestApproValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"zero K", func(in *Instance) { in.K = 0 }},
		{"zero speed", func(in *Instance) { in.Speed = 0 }},
		{"negative gamma", func(in *Instance) { in.Gamma = -1 }},
		{"NaN duration", func(in *Instance) { in.Requests[0].Duration = math.NaN() }},
		{"negative duration", func(in *Instance) { in.Requests[0].Duration = -5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := paperInstance(rng, 5, 2)
			tt.mutate(in)
			if _, err := Appro(context.Background(), in, Options{}); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestApproEmpty(t *testing.T) {
	in := &Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 3}
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tours) != 3 || s.Longest != 0 || s.NumStops() != 0 {
		t.Errorf("empty instance: %+v", s)
	}
	if vs := Verify(in, s); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestApproSingleRequest(t *testing.T) {
	in := &Instance{
		Depot:    geom.Pt(0, 0),
		Requests: []Request{{Pos: geom.Pt(30, 40), Duration: 100}},
		Gamma:    2.7,
		Speed:    1,
		K:        2,
	}
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Verify(in, s); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	// One charger does a 50+100+50 round trip; the other stays home.
	if math.Abs(s.Longest-200) > 1e-6 {
		t.Errorf("Longest = %v, want 200", s.Longest)
	}
}

func TestApproPlannedScheduleFeasibleOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(150)
		k := 1 + rng.Intn(4)
		in := paperInstance(rng, n, k)
		s, err := Appro(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		exec := Execute(context.Background(), in, s)
		if vs := Verify(in, exec); len(vs) != 0 {
			t.Fatalf("trial %d (n=%d k=%d): executed schedule infeasible: %v", trial, n, k, vs[0])
		}
		if exec.Longest+1e-6 < s.Longest && exec.WaitTime == 0 {
			t.Fatalf("trial %d: executed delay %v below planned %v without waits", trial, exec.Longest, s.Longest)
		}
	}
}

func TestApproCoversDenseCluster(t *testing.T) {
	// 30 sensors inside one gamma-disk: a single stop should cover many
	// of them, so stops << sensors.
	rng := rand.New(rand.NewSource(7))
	in := &Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 1}
	for i := 0; i < 30; i++ {
		in.Requests = append(in.Requests, Request{
			Pos:      geom.Pt(50+rng.Float64()*2, 50+rng.Float64()*2),
			Duration: 3600,
		})
	}
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Verify(in, Execute(context.Background(), in, s)); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if got := s.NumStops(); got > 6 {
		t.Errorf("dense cluster used %d stops, want few", got)
	}
}

func TestApproDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := paperInstance(rng, 80, 3)
	a, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Longest != b.Longest || a.NumStops() != b.NumStops() {
		t.Error("Appro is not deterministic")
	}
}

func TestApproMoreChargersHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := paperInstance(rng, 150, 1)
	in1 := *in
	in1.K = 1
	s1, err := Appro(context.Background(), &in1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in4 := *in
	in4.K = 4
	s4, err := Appro(context.Background(), &in4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s4.Longest > s1.Longest {
		t.Errorf("K=4 longest %v worse than K=1 %v", s4.Longest, s1.Longest)
	}
}

func TestApproZeroGamma(t *testing.T) {
	// gamma = 0 degenerates to one-to-one charging: every sensor is its
	// own stop.
	rng := rand.New(rand.NewSource(41))
	in := paperInstance(rng, 25, 2)
	in.Gamma = 0
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumStops(); got != 25 {
		t.Errorf("gamma=0: stops = %d, want 25", got)
	}
	if vs := Verify(in, Execute(context.Background(), in, s)); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestApproAllCoincident(t *testing.T) {
	in := &Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < 10; i++ {
		in.Requests = append(in.Requests, Request{Pos: geom.Pt(10, 0), Duration: 60})
	}
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStops() != 1 {
		t.Errorf("coincident sensors: stops = %d, want 1", s.NumStops())
	}
	if math.Abs(s.Longest-(10+60+10)) > 1e-6 {
		t.Errorf("Longest = %v, want 80", s.Longest)
	}
	if vs := Verify(in, s); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

// overflowInstance has 12 requests in four clusters near ±1e308 and
// ±1.5e308 and its depot at (-1e308, 0): it passes Validate, but most
// pairwise distances overflow to +Inf, and so do the plan's times.
func overflowInstance() *Instance {
	in := &Instance{Depot: geom.Pt(-1e308, 0), Gamma: 2.7, Speed: 1, K: 2}
	for i := range 12 {
		x := []float64{-1e308, 1e308, 1.5e308, -1.5e308}[i%4]
		in.Requests = append(in.Requests, Request{Pos: geom.Pt(x, float64(i%3)*1e307), Duration: float64(1+i%2) * 3600})
	}
	return in
}

// TestApproOverflowingDistances plans the overflow instance: Appro must
// still make exactly one stop per V'_H node, each covering a request, and
// Verify must flag the plan's infinite times rather than pass it.
func TestApproOverflowingDistances(t *testing.T) {
	in := overflowInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStops() != a.VH {
		t.Errorf("%d stops for %d V'_H nodes", s.NumStops(), a.VH)
	}
	seen := map[int]bool{}
	for k, tour := range s.Tours {
		for si, stop := range tour.Stops {
			if seen[stop.Node] || len(stop.Covers) == 0 {
				t.Errorf("tour %d stop %d: node %d repeated or covering nothing (covers %v)", k, si, stop.Node, stop.Covers)
			}
			seen[stop.Node] = true
		}
	}
	nonFinite := 0
	for _, v := range Verify(in, s) {
		if v.Kind != "non-finite-time" {
			t.Errorf("unexpected violation %v", v)
		}
		nonFinite++
	}
	if nonFinite == 0 {
		t.Error("Verify passed a plan whose times are +Inf")
	}
}

func TestApproStopsAreFewerThanOneToOne(t *testing.T) {
	// On a dense instance, multi-node stops should be far fewer than
	// sensors — the quantitative heart of the paper's 65% improvement.
	rng := rand.New(rand.NewSource(55))
	in := paperInstance(rng, 600, 2)
	s, err := Appro(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumStops(); got > 450 {
		t.Errorf("600 dense sensors used %d stops; expected meaningful multi-node consolidation", got)
	}
}

func BenchmarkAppro(b *testing.B) {
	for _, n := range []int{100, 400, 1200} {
		rng := rand.New(rand.NewSource(1))
		in := paperInstance(rng, n, 2)
		b.Run(fmtInt(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Appro(context.Background(), in, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fmtInt(n int) string {
	switch {
	case n >= 1000:
		return "n1200"
	case n >= 400:
		return "n400"
	default:
		return "n100"
	}
}
