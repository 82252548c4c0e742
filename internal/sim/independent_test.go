package sim

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
)

func independentCfg() Config {
	return Config{
		Duration:    40 * 86400,
		BatchWindow: DefaultBatchWindow,
		Dispatch:    DispatchIndependent,
		Verify:      true,
	}
}

func TestIndependentAllPlanners(t *testing.T) {
	nw := smallNetwork(t, 80, 12)
	planners := registry.PaperPlanners()
	for _, p := range planners {
		res, err := Run(context.Background(), nw, 2, p, independentCfg())
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Violations != 0 {
			t.Errorf("%s: %d violations (global interval audit)", p.Name(), res.Violations)
		}
		if res.Charges == 0 {
			t.Errorf("%s: nothing charged", p.Name())
		}
		if len(res.Rounds) == 0 {
			t.Errorf("%s: no dispatches", p.Name())
		}
	}
}

func TestIndependentDeterministic(t *testing.T) {
	nw := smallNetwork(t, 60, 13)
	a, err := Run(context.Background(), nw, 3, core.ApproPlanner{}, independentCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), nw, 3, core.ApproPlanner{}, independentCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Charges != b.Charges || len(a.Rounds) != len(b.Rounds) || a.AvgLongest != b.AvgLongest {
		t.Error("independent mode is not deterministic")
	}
}

func TestIndependentDispatchesInterleave(t *testing.T) {
	// With two chargers and a steady request stream, dispatches must
	// interleave: some dispatch happens while another charger is still
	// out (its return time is after the later dispatch's start).
	nw := smallNetwork(t, 200, 14)
	res, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, independentCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 3 {
		t.Skipf("only %d dispatches; cannot check interleaving", len(res.Rounds))
	}
	interleaved := false
	for i := 1; i < len(res.Rounds); i++ {
		prev := res.Rounds[i-1]
		if res.Rounds[i].Start < prev.Start+prev.Longest {
			interleaved = true
			break
		}
	}
	if !interleaved {
		t.Error("no overlapping dispatches; independent mode behaves synchronized")
	}
}

func TestIndependentDispatchOrderIsChronological(t *testing.T) {
	nw := smallNetwork(t, 150, 15)
	res, err := Run(context.Background(), nw, 3, core.ApproPlanner{}, independentCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Start < res.Rounds[i-1].Start-1e-9 {
			t.Fatalf("dispatch %d at %v before dispatch %d at %v",
				i, res.Rounds[i].Start, i-1, res.Rounds[i-1].Start)
		}
	}
}

func TestIndependentRespectsMaxRounds(t *testing.T) {
	nw := smallNetwork(t, 100, 16)
	cfg := independentCfg()
	cfg.MaxRounds = 4
	res, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) > 4 {
		t.Errorf("rounds = %d, want <= 4", len(res.Rounds))
	}
}

func TestIndependentVsSynchronizedBothFeasible(t *testing.T) {
	// The two dispatch modes must both keep the fleet feasible; under
	// load, independent dispatch usually shortens waiting because a
	// returned charger doesn't idle while its peer finishes.
	nw := smallNetwork(t, 250, 17)
	sync := independentCfg()
	sync.Dispatch = DispatchSynchronized
	a, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, sync)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, independentCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != 0 || b.Violations != 0 {
		t.Errorf("violations: sync %d, independent %d", a.Violations, b.Violations)
	}
	t.Logf("sync: dead %.1f min, %d dispatches; independent: dead %.1f min, %d dispatches",
		a.AvgDeadPerSensor/60, len(a.Rounds), b.AvgDeadPerSensor/60, len(b.Rounds))
}

func TestDispatchModeString(t *testing.T) {
	if DispatchSynchronized.String() != "synchronized" ||
		DispatchIndependent.String() != "independent" ||
		DispatchMode(9).String() != "unknown" {
		t.Error("DispatchMode.String wrong")
	}
}
