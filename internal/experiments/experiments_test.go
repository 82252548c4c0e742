package experiments

import (
	"context"
	"testing"
)

// fastOpts keeps experiment tests quick: tiny horizon, one instance.
func fastOpts() Options {
	return Options{
		Instances: 1,
		Duration:  10 * 86400,
		Verify:    true,
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, _, err := Run(context.Background(), "7", fastOpts()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunFigure3Small(t *testing.T) {
	// Shrink the sweep by running figure 5 (K sweep) at 10 days — still
	// exercises every planner and the aggregation path. Figure 3's full
	// sweep is covered by the bench harness.
	a, b, err := Run(context.Background(), "5", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "5a" || b.ID != "5b" {
		t.Errorf("IDs = %s, %s", a.ID, b.ID)
	}
	if len(a.X) != 5 || len(b.X) != 5 {
		t.Fatalf("sweep points = %d, %d", len(a.X), len(b.X))
	}
	if len(a.Series) != 5 {
		t.Fatalf("series = %d, want 5 algorithms", len(a.Series))
	}
	names := map[string]bool{}
	for _, s := range a.Series {
		names[s.Label] = true
		if len(s.Y) != len(a.X) || len(s.Std) != len(a.X) {
			t.Fatalf("series %s has %d points for %d xs", s.Label, len(s.Y), len(a.X))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("series %s point %d: non-positive longest %v", s.Label, i, y)
			}
		}
	}
	for _, p := range planners() {
		want := p.Name()
		if !names[want] {
			t.Errorf("missing series %q", want)
		}
	}
	if a.Violations != 0 {
		t.Errorf("feasibility violations: %d", a.Violations)
	}
}

func TestRunFigureFaultsSmall(t *testing.T) {
	opt := fastOpts()
	opt.Duration = 5 * 86400
	a, b, err := Run(context.Background(), "F", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "Fa" || b.ID != "Fb" {
		t.Errorf("IDs = %s, %s", a.ID, b.ID)
	}
	if len(a.X) != 4 {
		t.Fatalf("sweep points = %d, want 4", len(a.X))
	}
	if a.X[0] != 0 {
		t.Fatalf("first x = %v, want fault-free baseline 0", a.X[0])
	}
	if a.Violations != 0 {
		t.Errorf("feasibility violations under faults: %d", a.Violations)
	}
	for _, s := range a.Series {
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("series %s point %d: non-positive longest %v", s.Label, i, y)
			}
		}
	}
	// Reproducibility: the fault draws are keyed off the cell seed, so a
	// second run must agree exactly.
	a2, _, err := Run(context.Background(), "F", opt)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Series {
		for xi := range a.Series[si].Y {
			if a.Series[si].Y[xi] != a2.Series[si].Y[xi] {
				t.Fatalf("figure F not reproducible at series %d point %d", si, xi)
			}
		}
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	opt := fastOpts()
	opt.Duration = 5 * 86400
	a1, _, err := Run(context.Background(), "4", opt)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := Run(context.Background(), "4", opt)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a1.Series {
		for xi := range a1.Series[si].Y {
			if a1.Series[si].Y[xi] != a2.Series[si].Y[xi] {
				t.Fatalf("figure 4 not reproducible at series %d point %d", si, xi)
			}
		}
	}
}

func TestPlannersSeeSameNetworks(t *testing.T) {
	// The K=1..5 sweep of figure 5 uses the same per-instance seed for
	// every planner by construction; indirectly verified by determinism
	// above. Here check the planner list covers the paper's five.
	ps := planners()
	want := []string{"Appro", "K-EDF", "NETWRAP", "AA", "K-minMax"}
	if len(ps) != len(want) {
		t.Fatalf("planners = %v", ps)
	}
	for i := range want {
		if ps[i].Name() != want[i] {
			t.Errorf("planner %d = %q, want %q", i, ps[i].Name(), want[i])
		}
	}
}

func TestRunAblations(t *testing.T) {
	rows, err := RunAblation(context.Background(), AblationContender, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*len(ablationSizes) {
		t.Fatalf("%d rows, want one per variant and size (%d)", len(rows), 3*len(ablationSizes))
	}
	variants := map[string]bool{}
	for _, r := range rows {
		variants[r.Variant] = true
		if r.LongestH <= 0 || r.Stops <= 0 || r.N <= 0 {
			t.Errorf("variant %s: empty result %+v", r.Variant, r)
		}
	}
	for _, v := range []string{"appro", "bilevel-seed-1", "bilevel-seed-2"} {
		if !variants[v] {
			t.Errorf("variant %s missing from %v", v, variants)
		}
	}
	// "mis" and "insertion" were retired with the Appro options they
	// compared.
	for _, id := range []string{"nope", "mis", "insertion"} {
		if _, err := RunAblation(context.Background(), id, fastOpts()); err == nil {
			t.Errorf("unknown ablation %q accepted", id)
		}
	}
}
