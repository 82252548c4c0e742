package core

import (
	"context"
	"math/rand"
	"testing"
)

// approAllocCeiling caps the allocations of one ApproPlanner plan (Appro
// and Execute, what e2ebench's plan_alloc_mb measures) at serve-mix's
// shape (n=1200, K=2, the paper's 100 m field): 1.25 times the count
// measured when the kernels stopped boxing heap items and sorting per-row
// candidate sets. Allocation counts are exact on any machine, so a boxed
// heap or a per-row sort closure that comes back fails here, not only in
// a timing.
const approAllocCeiling = 1.25 * approAllocs

// approAllocs is the measured allocation count per plan on the instance
// below (2,957 before the kernels were made allocation-lean).
const approAllocs = 1043

func TestApproAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	in := paperInstance(rand.New(rand.NewSource(1)), 1200, 2)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := (ApproPlanner{}).Plan(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per plan (ceiling %.0f)", allocs, approAllocCeiling)
	if allocs > approAllocCeiling {
		t.Errorf("Appro made %.0f allocations per plan at n=1200, K=2; the ceiling is %.0f", allocs, approAllocCeiling)
	}
}
