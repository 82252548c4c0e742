package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The headline guarantee of the parallelism layer: identical seeds produce
// byte-identical figure tables at any worker count, with the plan cache
// cold, warm, or disabled. These tests run the real sweep machinery on a
// miniature figure-3 grid so they stay fast enough for every CI run.

// miniFig3 is figure 3 (network-size sweep) shrunk to test scale.
func miniFig3() sweepSpec {
	return sweepSpec{
		id:     "3",
		title:  "varying the network size n (K = 2), mini",
		xlabel: "network size n",
		xs:     []float64{40, 80},
		setup: func(x float64) (workload.Params, int) {
			return workload.NewParams(int(x)), 2
		},
	}
}

func miniOptions(workers int, cache bool) Options {
	return Options{
		Instances: 2,
		Duration:  5 * 86400, // five simulated days
		Workers:   workers,
		PlanCache: cache,
		Verify:    true,
	}
}

// figureJSON renders both panels the way wrsn-bench writes them, so the
// comparison is over the exact bytes a user would diff.
func figureJSON(t *testing.T, a, b *Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, f := range []*Figure{a, b} {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := miniFig3()
	var ref []byte
	for _, w := range []int{1, 2, 8} {
		a, b, err := runSweep(context.Background(), spec, miniOptions(w, false))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if a.Violations != 0 {
			t.Fatalf("workers=%d: %d feasibility violations", w, a.Violations)
		}
		got := figureJSON(t, a, b)
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: figure tables diverged from workers=1", w)
		}
	}
}

func TestSweepPlanCacheDoesNotChangeResults(t *testing.T) {
	spec := miniFig3()
	aOff, bOff, err := runSweep(context.Background(), spec, miniOptions(2, false))
	if err != nil {
		t.Fatal(err)
	}
	aOn, bOn, err := runSweep(context.Background(), spec, miniOptions(2, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aOff, aOn) || !reflect.DeepEqual(bOff, bOn) {
		t.Fatal("enabling the plan cache changed the figure tables")
	}
}

// TestSimTraceByteIdenticalAcrossPlannerWorkers drives the simulator's
// JSONL trace — the full ordered event stream — with the planner's internal
// parallelism (BiLevel's outer rounds, the fan-out Options.Workers bounds)
// at several worker counts. The trace is keyed by simulation time only, so
// any divergence in event ordering or content is a determinism bug in the
// parallel layer.
func TestSimTraceByteIdenticalAcrossPlannerWorkers(t *testing.T) {
	nw, err := workload.Generate(workload.NewParams(60), 7)
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, w := range []int{1, 2, 8} {
		var buf bytes.Buffer
		planner := registry.MustNew("BiLevel", &core.Options{Seed: 1, Workers: w})
		if _, err := sim.Run(context.Background(), nw, 2, planner, sim.Config{
			Duration: 5 * 86400,
			Trace:    &buf,
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("workers=%d: empty trace", w)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("workers=%d: JSONL trace diverged from workers=1", w)
		}
	}
}

// TestSweepCacheWarmRerunMatchesCold reruns an identical sweep against a
// process-fresh cache and against nothing at all; all three tables must
// match, confirming a warm rerun serves copies rather than aliases.
func TestSweepCacheWarmRerunMatchesCold(t *testing.T) {
	spec := miniFig3()
	opt := miniOptions(2, true)
	a1, b1, err := runSweep(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := runSweep(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(figureJSON(t, a1, b1), figureJSON(t, a2, b2)) {
		t.Fatal("rerunning the cached sweep changed the figure tables")
	}
}
