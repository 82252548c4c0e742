// Benchmarks mirroring the paper's evaluation, one per figure panel.
//
// Each BenchmarkFigNx runs a scaled-down version of the corresponding
// sweep (fewer instances, shorter horizon) so `go test -bench .` finishes
// in minutes; the full one-year, multi-instance harness behind
// EXPERIMENTS.md is `go run ./cmd/wrsn-bench`. Microbenchmarks for the
// planning algorithms themselves follow the figure benches.
package repro_test

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro"
	"repro/internal/geom"
)

// benchOpts is the scaled-down figure configuration for testing.B runs.
func benchOpts() repro.ExperimentOptions {
	return repro.ExperimentOptions{
		Instances: 1,
		Duration:  30 * 86400, // 30 days instead of a year
	}
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, bb, err := repro.RunFigure(context.Background(), id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Series) != 5 || len(bb.Series) != 5 {
			b.Fatalf("figure %s: wrong series count", id)
		}
	}
}

// BenchmarkFig3a reproduces Fig. 3(a): average longest tour duration while
// varying the network size n from 200 to 1200 with K = 2 chargers.
func BenchmarkFig3a(b *testing.B) { runFigure(b, "3") }

// BenchmarkFig3b reproduces Fig. 3(b): average dead duration per sensor
// over the monitoring period while varying n. It shares the sweep with
// Fig. 3(a) — the harness produces both panels from one set of runs, as
// the paper does.
func BenchmarkFig3b(b *testing.B) { runFigure(b, "3") }

// BenchmarkFig4a reproduces Fig. 4(a): average longest tour duration while
// varying b_max from 10 to 50 kbps at n = 1000, K = 2.
func BenchmarkFig4a(b *testing.B) { runFigure(b, "4") }

// BenchmarkFig4b reproduces Fig. 4(b): average dead duration per sensor
// for the same sweep.
func BenchmarkFig4b(b *testing.B) { runFigure(b, "4") }

// BenchmarkFig5a reproduces Fig. 5(a): average longest tour duration while
// varying the number of chargers K from 1 to 5 at n = 1000.
func BenchmarkFig5a(b *testing.B) { runFigure(b, "5") }

// BenchmarkFig5b reproduces Fig. 5(b): average dead duration per sensor
// for the same sweep.
func BenchmarkFig5b(b *testing.B) { runFigure(b, "5") }

// benchInstance builds one planning instance with the paper's parameters.
func benchInstance(n, k int) *repro.Instance {
	rng := rand.New(rand.NewSource(7))
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
			Lifetime: rng.Float64() * 7 * 86400,
		})
	}
	return in
}

// BenchmarkPlanners measures one planning round per algorithm on a dense
// V_s of 400 requests with K = 2 — the per-round cost inside the
// simulator.
func BenchmarkPlanners(b *testing.B) {
	in := benchInstance(400, 2)
	for _, p := range repro.Planners() {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Plan(context.Background(), in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApproScaling measures Algorithm Appro alone across request-set
// sizes, exercising its O(|V_s|^2)-ish behavior.
func BenchmarkApproScaling(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800, 1200} {
		in := benchInstance(n, 2)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.Appro(context.Background(), in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify measures the independent feasibility verifier.
func BenchmarkVerify(b *testing.B) {
	in := benchInstance(400, 2)
	s, err := repro.PlanAppro(context.Background(), in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := repro.Verify(in, s); len(vs) != 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
}

// BenchmarkSimulateYear measures one full one-year simulation at n = 400,
// K = 2 under Appro — the unit of work behind every figure cell.
func BenchmarkSimulateYear(b *testing.B) {
	nw, err := repro.GenerateNetwork(repro.NewNetworkParams(400), 1)
	if err != nil {
		b.Fatal(err)
	}
	planner, err := repro.NewPlanner("Appro")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Simulate(context.Background(), nw, 2, planner, repro.SimConfig{
			BatchWindow: repro.DefaultBatchWindow,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
