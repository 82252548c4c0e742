package repro_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/geom"
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
