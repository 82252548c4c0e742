package ktour

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// TestMinMaxQuickPartition drives the partition invariant through
// testing/quick-shaped inputs: every node in exactly one tour, reported
// delays consistent, for arbitrary sizes, K and service scales.
func TestMinMaxQuickPartition(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8, scale uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 50)
		k := 1 + int(kRaw%6)
		in := Input{
			Depot: geom.Pt(50, 50),
			Speed: 1,
			K:     k,
		}
		for i := 0; i < n; i++ {
			in.Nodes = append(in.Nodes, geom.Pt(rng.Float64()*100, rng.Float64()*100))
			in.Service = append(in.Service, rng.Float64()*float64(scale))
		}
		sol, err := MinMax(context.Background(), in)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		longest := 0.0
		for _, tour := range sol.Tours {
			for _, v := range tour {
				if v < 0 || v >= n || seen[v] {
					return false
				}
				seen[v] = true
			}
			if d := TourDelay(in, tour); d > longest {
				longest = d
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return absDiff(longest, sol.Longest) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMinMaxServiceMonotonicity: inflating every service time cannot
// shorten the optimal-split delay (the same grand tour gets heavier).
func TestMinMaxServiceMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		in := randInput(rng, n, 1+rng.Intn(4))
		base, err := MinMax(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		heavier := in
		heavier.Service = make([]float64, n)
		for i := range heavier.Service {
			heavier.Service[i] = in.Service[i] + 100
		}
		heavy, err := MinMax(context.Background(), heavier)
		if err != nil {
			t.Fatal(err)
		}
		if heavy.Longest < base.Longest-1e-6 {
			t.Fatalf("trial %d: heavier services produced shorter delay (%v < %v)",
				trial, heavy.Longest, base.Longest)
		}
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
