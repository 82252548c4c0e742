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
// below (2,957 before the kernels were made allocation-lean, 1,043 before
// minimum spanning trees dropped their per-vertex children lists, 736
// while Appro seeded a math/rand source that no MIS order read, 734 while
// Execute copied each stop's covers into a slice of its own and every
// insertion chunk allocated its parallel arrays one by one).
const approAllocs = 282

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

// verifyAllocs is the measured allocation count of one Verify of the plan
// below, on the same instance as approAllocs (1,153 when every stop built
// its cover set before any pair was tested). A feasible plan needs no
// cover set, so a count that grows with the stops fails here.
const verifyAllocs = 12

func TestVerifyAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	in := paperInstance(rand.New(rand.NewSource(1)), 1200, 2)
	s, err := (ApproPlanner{}).Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if v := Verify(in, s); len(v) != 0 {
			t.Fatalf("%d violations, first %v", len(v), v[0])
		}
	})
	const ceiling = 1.25 * verifyAllocs
	t.Logf("%.0f allocations per Verify (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Verify made %.0f allocations at n=1200, K=2; the ceiling is %.0f", allocs, ceiling)
	}
}
