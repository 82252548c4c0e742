package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/geom"
)

func demoInstance(rng *rand.Rand, n, k int) *repro.Instance {
	in := &repro.Instance{
		Depot: geom.Pt(50, 50),
		Gamma: 2.7,
		Speed: 1,
		K:     k,
	}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, repro.Request{
			Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
		})
	}
	return in
}

func TestPublicPlanAndVerifyRoundTrip(t *testing.T) {
	in := demoInstance(rand.New(rand.NewSource(1)), 80, 2)
	s, err := repro.PlanAppro(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if vs := repro.Verify(in, s); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if s.Longest <= 0 {
		t.Error("empty objective")
	}
}

func TestPublicApproThenExecute(t *testing.T) {
	in := demoInstance(rand.New(rand.NewSource(2)), 50, 3)
	planned, err := repro.Appro(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	executed := repro.Execute(context.Background(), in, planned)
	if vs := repro.Verify(in, executed); len(vs) != 0 {
		t.Fatalf("executed violations: %v", vs)
	}
}

func TestNewPlannerNames(t *testing.T) {
	for _, name := range []string{"Appro", "K-EDF", "NETWRAP", "AA", "K-minMax", "BiLevel", "appro", "kedf", "kminmax", "bilevel", "bi-level", "BLM"} {
		if _, err := repro.NewPlanner(name); err != nil {
			t.Errorf("NewPlanner(%q): %v", name, err)
		}
	}
	if _, err := repro.NewPlanner("bogus"); err == nil {
		t.Error("bogus planner accepted")
	}
}

func TestPlannersOrder(t *testing.T) {
	ps := repro.Planners()
	if len(ps) != 6 || ps[0].Name() != "Appro" || ps[5].Name() != "BiLevel" {
		names := make([]string, len(ps))
		for i, p := range ps {
			names[i] = p.Name()
		}
		t.Fatalf("Planners() = %v", names)
	}
}

// TestRegistryCoverageGuard keeps the comparison surfaces honest: every
// registered planner must be exercised by the golden objective table
// (and therefore by the -compare path and BenchmarkPlanners, which both
// range over repro.Planners()). Registering a planner without extending
// goldenObjectives fails here, not silently.
func TestRegistryCoverageGuard(t *testing.T) {
	names := repro.PlannerNames()
	if len(names) != len(goldenObjectives) {
		t.Errorf("registry has %d planners, goldenObjectives has %d entries", len(names), len(goldenObjectives))
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		seen[name] = true
		if _, ok := goldenObjectives[name]; !ok {
			t.Errorf("registered planner %q has no golden objective", name)
		}
	}
	for name := range goldenObjectives {
		if !seen[name] {
			t.Errorf("goldenObjectives entry %q is not a registered planner", name)
		}
	}
	ps := repro.Planners()
	if len(ps) != len(names) {
		t.Fatalf("Planners() returns %d planners, registry names %d", len(ps), len(names))
	}
	for i, p := range ps {
		if p.Name() != names[i] {
			t.Errorf("Planners()[%d].Name() = %q, registry order says %q", i, p.Name(), names[i])
		}
	}
}

func TestPublicSimulate(t *testing.T) {
	nw, err := repro.GenerateNetwork(repro.NewNetworkParams(50), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range repro.Planners() {
		res, err := repro.Simulate(context.Background(), nw, 2, p, repro.SimConfig{
			Duration:    20 * 86400,
			BatchWindow: repro.DefaultBatchWindow,
			Verify:      true,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Violations != 0 {
			t.Errorf("%s: violations %d", p.Name(), res.Violations)
		}
		if res.Charges == 0 {
			t.Errorf("%s: nothing charged", p.Name())
		}
	}
}

func TestPublicRunFigureTiny(t *testing.T) {
	a, b, err := repro.RunFigure(context.Background(), "5", repro.ExperimentOptions{
		Instances: 1,
		Duration:  5 * 86400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "5a" || b.ID != "5b" || len(a.Series) != 5 {
		t.Errorf("figure shape wrong: %s %s %d series", a.ID, b.ID, len(a.Series))
	}
}
