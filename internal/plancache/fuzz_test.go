package plancache

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// FuzzPlanCacheKey checks the cache key's contractual properties on
// randomized instances: (1) equal instances hash equal (a replan of the
// same network hits), (2) an instance mutated in any single field — a
// coordinate, a duration, a lifetime, gamma, speed, K or the depot —
// hashes differently (no false hits between distinct problems), and
// (3) a nonzero seed, the one core.Options field, changes the key.
func FuzzPlanCacheKey(f *testing.F) {
	f.Add(int64(1), uint8(0), 1.0)
	f.Add(int64(2), uint8(3), -0.5)
	f.Add(int64(3), uint8(6), 1e-9)
	f.Add(int64(42), uint8(5), 123.456)
	f.Add(int64(7), uint8(7), 2.0)
	f.Add(int64(8), uint8(1), 1.0)
	f.Add(int64(9), uint8(2), 3.0)
	f.Add(int64(10), uint8(4), 4.0)
	f.Fuzz(func(t *testing.T, seed int64, field uint8, delta float64) {
		if math.IsNaN(delta) || math.IsInf(delta, 0) || delta == 0 {
			t.Skip("delta must be a usable perturbation")
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		build := func() *core.Instance {
			r := rand.New(rand.NewSource(seed))
			r.Intn(31) // keep the stream aligned with the n draw above
			in := &core.Instance{
				Depot: geom.Pt(r.Float64()*100, r.Float64()*100),
				Gamma: r.Float64() * 5,
				Speed: 0.5 + r.Float64(),
				K:     1 + r.Intn(4),
			}
			for i := 0; i < n; i++ {
				in.Requests = append(in.Requests, core.Request{
					Pos:      geom.Pt(r.Float64()*100, r.Float64()*100),
					Duration: r.Float64() * 5400,
					Lifetime: r.Float64() * 7 * 86400,
				})
			}
			return in
		}
		base, same, mutated := build(), build(), build()

		if KeyOf("Appro", nil, base) != KeyOf("Appro", nil, same) {
			t.Fatal("identically built instances hashed differently")
		}

		// Mutate exactly one instance or options field, verifying float
		// perturbations actually changed the stored value (tiny deltas can
		// round away). Fields 0-6 perturb the instance, 7 the seed.
		var mutOpts *core.Options
		ri := rng.Intn(n)
		changed := true
		bump := func(v *float64) {
			old := *v
			*v += delta
			changed = *v != old
		}
		switch field % 8 {
		case 0:
			bump(&mutated.Requests[ri].Pos.X)
		case 1:
			bump(&mutated.Requests[ri].Pos.Y)
		case 2:
			bump(&mutated.Requests[ri].Duration)
		case 3:
			bump(&mutated.Requests[ri].Lifetime)
		case 4:
			bump(&mutated.Gamma)
		case 5:
			bump(&mutated.Speed)
		case 6:
			mutated.K++
		case 7:
			mutOpts = &core.Options{Seed: 1 + rng.Int63n(1<<30)}
		}
		if !changed {
			t.Skip("perturbation rounded away")
		}
		if KeyOf("Appro", mutOpts, mutated) == KeyOf("Appro", nil, base) {
			t.Fatalf("inputs differing in field %d hashed equal", field%8)
		}

		// A warm cache must hit the equal input and miss the mutated one.
		c := New(4)
		c.Put(t.Context(), KeyOf("Appro", nil, base), "Appro", []byte("{}"))
		if _, _, ok := c.Get(t.Context(), KeyOf("Appro", nil, same)); !ok {
			t.Fatal("equal instance missed the cache")
		}
		if _, _, ok := c.Get(t.Context(), KeyOf("Appro", mutOpts, mutated)); ok {
			t.Fatal("mutated input hit the cache")
		}
	})
}
