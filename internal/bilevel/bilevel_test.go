package bilevel

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// testInstance packs n requests into a 30x30 field so the gamma=2.7
// unit-disk graph is dense enough that MIS order — and therefore the
// seeded outer rounds — actually changes candidate sets.
func testInstance(seed int64, n, k int) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &core.Instance{Depot: geom.Pt(15, 15), Gamma: 2.7, Speed: 1, K: k}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*30, rng.Float64()*30),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: (1 + rng.Float64()*6) * 86400,
		})
	}
	return in
}

func TestPlanVerifierClean(t *testing.T) {
	in := testInstance(1, 120, 3)
	s, err := Planner{}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if vs := core.Verify(in, s); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if s.Longest <= 0 {
		t.Error("empty objective")
	}
	if len(s.Tours) != in.K {
		t.Errorf("got %d tours, want %d", len(s.Tours), in.K)
	}
}

// TestDeterminism requires byte-identical schedules at every GOMAXPROCS
// at a fixed seed: the outer rounds are seeded by round index, merged by
// index, and tie-broken by lowest round, so parallelism can never change
// the winner. GOMAXPROCS is process-wide, so the test is not parallel.
func TestDeterminism(t *testing.T) {
	in := testInstance(2, 100, 2)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var ref *core.Schedule
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		s, err := Planner{Opts: core.Options{Seed: 5}}.Plan(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = s
			continue
		}
		if !reflect.DeepEqual(ref, s) {
			t.Fatalf("schedule differs at GOMAXPROCS=%d", procs)
		}
	}
}

func TestSeedShapesPlan(t *testing.T) {
	in := testInstance(1, 100, 2)
	a, err := Planner{Opts: core.Options{Seed: 1}}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Planner{Opts: core.Options{Seed: 2}}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 produced identical schedules — Seed is not shaping the search")
	}
}

func TestPlanOptionsCacheIdentity(t *testing.T) {
	o := Planner{Opts: core.Options{Seed: 9}}.PlanOptions()
	if o.Seed != 9 {
		t.Errorf("PlanOptions dropped the seed: %+v", o)
	}
}

func TestEmptyInstance(t *testing.T) {
	in := &core.Instance{Depot: geom.Pt(0, 0), Gamma: 1, Speed: 1, K: 2}
	s, err := Planner{}.Plan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tours) != 2 || s.Longest != 0 {
		t.Fatalf("empty instance: %+v", s)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Planner{}).Plan(ctx, testInstance(4, 50, 2)); err == nil {
		t.Fatal("planned under a cancelled context")
	}
}
