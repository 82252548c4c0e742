package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// FuzzApproPipeline drives the whole plan -> execute -> verify pipeline
// from fuzzed instance shapes: arbitrary sizes, charger counts, radii,
// field scales and duration spreads. The invariant under test is total:
// for every valid instance, Appro must produce a schedule and the executed
// schedule must verify clean.
//
// Run the seed corpus with `go test`; explore with
// `go test -fuzz FuzzApproPipeline ./internal/core`.
func FuzzApproPipeline(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(2), 2.7, 100.0)
	f.Add(int64(2), uint16(0), uint8(1), 2.7, 100.0)
	f.Add(int64(3), uint16(200), uint8(5), 0.1, 10.0)
	f.Add(int64(4), uint16(50), uint8(3), 25.0, 30.0)
	f.Add(int64(5), uint16(1), uint8(4), 0.0, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, kRaw uint8, gamma, side float64) {
		n := int(nRaw % 300)
		k := 1 + int(kRaw%6)
		if math.IsNaN(gamma) || math.IsInf(gamma, 0) || gamma < 0 || gamma > 1e4 {
			t.Skip()
		}
		if math.IsNaN(side) || math.IsInf(side, 0) || side <= 0 || side > 1e5 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		in := &Instance{
			Depot: geom.Pt(side/2, side/2),
			Gamma: gamma,
			Speed: 1,
			K:     k,
		}
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, Request{
				Pos:      geom.Pt(rng.Float64()*side, rng.Float64()*side),
				Duration: rng.Float64() * 7200,
			})
		}
		planned, err := Appro(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("Appro failed on valid instance: %v", err)
		}
		exec := Execute(context.Background(), in, planned)
		if vs := Verify(in, exec); len(vs) != 0 {
			t.Fatalf("executed schedule infeasible (n=%d k=%d gamma=%v side=%v): %v",
				n, k, gamma, side, vs[0])
		}
	})
}

// FuzzVerifyNeverPanics feeds Verify structurally hostile schedules —
// out-of-range nodes, negative times, covers pointing anywhere — and
// requires it to report violations instead of panicking.
func FuzzVerifyNeverPanics(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(2))
	f.Add(int64(9), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, stopsRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 20)
		in := &Instance{Depot: geom.Pt(0, 0), Gamma: 2.7, Speed: 1, K: 2}
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, Request{
				Pos:      geom.Pt(rng.Float64()*50, rng.Float64()*50),
				Duration: rng.Float64() * 100,
			})
		}
		s := &Schedule{Tours: make([]Tour, 2)}
		for si := 0; si < int(stopsRaw%8); si++ {
			k := rng.Intn(2)
			s.Tours[k].Stops = append(s.Tours[k].Stops, Stop{
				Node:     rng.Intn(25) - 3, // may be out of range
				Arrive:   rng.Float64()*1000 - 100,
				Duration: rng.Float64()*200 - 50,
				Covers:   []int{rng.Intn(25) - 3},
			})
		}
		_ = Verify(in, s) // must not panic
	})
}
