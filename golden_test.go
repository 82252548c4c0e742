package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/workload"
)

// TestGoldenObjectives pins the exact objective values every algorithm
// produces on one fixed instance. The numbers carry no meaning beyond
// "this is what the current implementation computes" — the test exists to
// catch unintended behavioral drift during refactors. If a deliberate
// algorithmic change shifts them, re-derive the constants (they are
// printed on failure) and update EXPERIMENTS.md.
func TestGoldenObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	in := &repro.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < 250; i++ {
		in.Requests = append(in.Requests, repro.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: (1 + rng.Float64()*6) * 86400,
		})
	}
	for _, p := range repro.Planners() {
		s, err := p.Plan(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := s.Longest / 3600
		w, ok := goldenObjectives[p.Name()]
		if !ok {
			t.Fatalf("%s has no golden objective: add it to goldenObjectives (got %.4f h)", p.Name(), got)
		}
		if math.Abs(got-w) > 5e-4 {
			t.Errorf("%s golden objective drifted: got %.4f h, recorded %.4f h", p.Name(), got, w)
		}
	}
}

// goldenObjectives pins the golden values in hours, recorded from the
// pinned implementation. Appro's value was re-derived when it switched
// to canonical request ordering (permutation-invariant planning; see
// internal/core/canon.go). TestRegistryCoverageGuard fails the build of
// any planner registered without an entry here, so the table always
// covers the full registry.
var goldenObjectives = map[string]float64{
	"Appro":    130.0211,
	"K-EDF":    171.1694,
	"NETWRAP":  170.8549,
	"AA":       173.6585,
	"K-minMax": 169.4567,
	"BiLevel":  129.3508,
}

// TestPlanBytesGolden pins the SHA-256 of the canonical schedule bytes
// (export.WriteSchedule, the encoding of `wrsn-plan -json` and of a
// /v1/plan response) for a handful of plans. The geometric kernels under
// the planners (grid graphs, the MST, the 2-opt neighbour lists, the tour
// split, the canonical request order) are tuned for speed under a
// byte-identity contract; this test turns that contract into a `go test`
// fact. A change that alters plans on purpose re-pins the digests (they
// are printed on failure) and records the objective delta in
// EXPERIMENTS.md.
func TestPlanBytesGolden(t *testing.T) {
	cases := []struct {
		name    string
		planner string
		in      *repro.Instance
		want    string
	}{
		{"appro-n1200-k2-seed1", "Appro", workload.RequestSet(1200, 2, 1, 100), "13a58349698d8e13dbb34de8a0d3de307730304ee32dae1b3eaf964885492c13"},
		{"appro-n300-k3-seed7", "Appro", workload.RequestSet(300, 3, 7, 100), "65ef72eb6e89bad53d7ceeb1be2c3cc7bf258e46bb69e7d45118652b9ed46884"},
		{"appro-citygrid", "Appro", cityGridInstance(), "0cba1e7718a5ce1a4e2c4a0489dffbc35523adb6742f5b64f33f54dedfa07e58"},
		{"kminmax-n1200-k2-seed1", "K-minMax", workload.RequestSet(1200, 2, 1, 100), "d9447a06a72f589093e74a62bc188d90c14626cfbd5698114bebede16a75927c"},
		{"aa-n1200-k2-seed1", "AA", workload.RequestSet(1200, 2, 1, 100), "c2af481a7ce826ca8df7dcfc333601f3ef873257e60e186a31de0a4853bf9d3c"},
		{"bilevel-n1200-k2-seed1", "BiLevel", workload.RequestSet(1200, 2, 1, 100), "f993b971d73713bf569454e153a50e164f5c5ae70c53830ca43612dff13dbaa2"},
		// e2ebench verified-30k's instance 0: thousands of stops per tour,
		// so many insertion-chunk splits and the long grand-tour 2-opt.
		{"appro-n30000-k4-field500-seed1", "Appro", workload.RequestSet(30000, 4, 1, 500), "002a020db2efc94fb4ff6d2d644d579b0d1ecaabd65013c565c5a463c16b5d53"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := repro.NewPlanner(tc.planner)
			if err != nil {
				t.Fatal(err)
			}
			s, err := p.Plan(context.Background(), tc.in)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := export.WriteSchedule(h, s); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("%s plan bytes drifted: sha256 %s, pinned %s", tc.planner, got, tc.want)
			}
		})
	}
}

// cityGridInstance is examples/citygrid's charging round: a 20x20
// street-grid lattice 2.5 m apart, K=2, durations cycling through 80-100%
// depletion of a 10.8 kJ battery at 2 W.
func cityGridInstance() *repro.Instance {
	in := &repro.Instance{Depot: geom.Pt(23.75, 23.75), Gamma: 2.7, Speed: 1, K: 2}
	for row := 0; row < 20; row++ {
		for col := 0; col < 20; col++ {
			depletion := 0.8 + 0.2*float64((row*20+col)%5)/5
			in.Requests = append(in.Requests, repro.Request{
				Pos:      geom.Pt(float64(col)*2.5, float64(row)*2.5),
				Duration: depletion * 10800 / 2,
				Lifetime: float64(1+(row+col)%7) * 86400,
			})
		}
	}
	return in
}
