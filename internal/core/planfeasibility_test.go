package core

import (
	"context"
	"math/rand"
	"testing"
)

// TestPlannedScheduleOverlapRate measures how often the raw Algorithm 1
// plan — before the conflict-aware executor — already satisfies the
// no-simultaneous-charging constraint. The paper argues the latest-finish
// insertion rule suffices, but later insertions shift downstream stops,
// which can in principle re-introduce cross-tour overlaps; this test
// quantifies how often that actually happens and asserts that Execute
// always repairs it.
func TestPlannedScheduleOverlapRate(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const trials = 40
	planViolations := 0
	for trial := 0; trial < trials; trial++ {
		n := 100 + rng.Intn(500)
		k := 2 + rng.Intn(3)
		in := paperInstance(rng, n, k)
		planned, err := Appro(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if hasOverlap(Verify(in, planned)) {
			planViolations++
		}
		if vs := Verify(in, Execute(context.Background(), in, planned)); hasOverlap(vs) {
			t.Fatalf("trial %d: executor failed to repair an overlap", trial)
		}
	}
	t.Logf("planned-schedule overlap rate: %d/%d instances (executor repaired all)",
		planViolations, trials)
}

func hasOverlap(vs []Violation) bool {
	for _, v := range vs {
		if v.Kind == "simultaneous-charge" {
			return true
		}
	}
	return false
}
