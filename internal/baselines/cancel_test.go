package baselines

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestBaselinesHonorContext checks every baseline planner against the
// shared cancellation contract: a pre-cancelled context yields an error
// satisfying errors.Is(err, context.Canceled) and no schedule.
func TestBaselinesHonorContext(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	in := &core.Instance{Depot: geom.Pt(50, 50), Gamma: 2.7, Speed: 1, K: 2}
	for i := 0; i < 60; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: float64(1+i%7) * 86400,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range allBaselines {
		t.Run(p.Name(), func(t *testing.T) {
			s, err := p.Plan(ctx, in)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if s != nil {
				t.Fatal("schedule returned alongside cancellation error")
			}
		})
	}
}
