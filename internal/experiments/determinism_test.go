package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The headline guarantee of the parallelism layer: identical seeds produce
// byte-identical figure tables at any GOMAXPROCS. These tests run the real
// sweep machinery on a miniature figure-3 grid so they stay fast enough
// for every CI run. GOMAXPROCS is process-wide, so tests that set it are
// not parallel.

// setGOMAXPROCS sets runtime.GOMAXPROCS to n until the test ends.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

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

func miniOptions() Options {
	return Options{
		Instances: 2,
		Duration:  5 * 86400, // five simulated days
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
	for _, procs := range []int{1, 2, 8} {
		setGOMAXPROCS(t, procs)
		a, b, err := runSweep(context.Background(), spec, miniOptions())
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if a.Violations != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d feasibility violations", procs, a.Violations)
		}
		got := figureJSON(t, a, b)
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("GOMAXPROCS=%d: figure tables diverged from GOMAXPROCS=1", procs)
		}
	}
}

// TestSimTraceByteIdenticalAcrossPlannerWorkers drives the simulator's
// JSONL trace — the full ordered event stream — with the planner's internal
// parallelism (BiLevel's outer rounds, fanned over GOMAXPROCS workers) at
// several GOMAXPROCS values. The trace is keyed by simulation time only,
// so any divergence in event ordering or content is a determinism bug in
// the parallel layer.
func TestSimTraceByteIdenticalAcrossPlannerWorkers(t *testing.T) {
	nw, err := workload.Generate(workload.NewParams(60), 7)
	if err != nil {
		t.Fatal(err)
	}
	planner := registry.MustNew("BiLevel", &core.Options{Seed: 1})
	var ref []byte
	for _, procs := range []int{1, 2, 8} {
		setGOMAXPROCS(t, procs)
		var buf bytes.Buffer
		if _, err := sim.Run(context.Background(), nw, 2, planner, sim.Config{
			Duration: 5 * 86400,
			Trace:    &buf,
		}); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("GOMAXPROCS=%d: empty trace", procs)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("GOMAXPROCS=%d: JSONL trace diverged from GOMAXPROCS=1", procs)
		}
	}
}
