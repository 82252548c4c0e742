package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/workload"
)

// scalingDensity holds the request density of the scaling ladder at the
// paper's: 0.12 sensors per square meter puts n=1200 exactly on the
// 100x100 field of Section VI, and side = sqrt(n/0.12) for every other
// rung. It mirrors internal/core/scaling_bench_test.go.
const scalingDensity = 0.12

// runScaling executes the BENCH_scaling.json ladder: one cold Appro plan
// per rung of the comma-separated n ladder on a density-scaled field,
// reporting per-stage timings from the obs tracer — including the
// mis/select and mis/update sub-spans that attribute the MIS stage to
// selection and bookkeeping, and the kminmax/mst, kminmax/2opt and
// kminmax/split sub-spans that attribute the K-minMax stage to its
// kernels. Every plan is then checked: the feasibility verifier and the
// lower bound run under the verify and lowerbound spans, outside the
// plan's total, and the table reports the plan's gap to the bound. budget
// is a comma-separated list of stage=seconds assertions (e.g.
// "kminmax=30,mis=20") checked against every rung; stage names must come
// from the tracer's canonical vocabulary (obs.KnownStages) — unknown
// names are a hard error, never a silently-passing no-op. A budget
// breach or a feasibility violation fails the run after the table
// prints, so CI can hold both out.
func runScaling(ctx context.Context, ladder string, k int, seed int64, budget string, csv bool) error {
	ns, err := parseLadder(ladder)
	if err != nil {
		return err
	}
	budgets, err := parseBudget(budget)
	if err != nil {
		return err
	}
	stages := []string{
		obs.StageChargingGraph, obs.StageMIS, obs.StageMISSelect, obs.StageMISUpdate, obs.StageKMinMax,
		obs.StageKMinMaxMST, obs.StageKMinMaxTwoOpt, obs.StageKMinMaxSplit,
		obs.StageInsertion, obs.StageVerify, obs.StageLowerBound,
	}
	tb := export.NewTable(
		fmt.Sprintf("Appro scaling ladder, density %.2f sensors/unit^2, K=%d, seed %d", scalingDensity, k, seed),
		"n", "field", "total (s)", "graph", "mis", "..select", "..update", "kminmax", "..mst", "..2opt", "..split", "insertion",
		"verify", "lowerbound", "gap")
	planner, err := repro.NewPlanner("Appro")
	if err != nil {
		return err
	}
	var failures []string
	for _, n := range ns {
		side := math.Sqrt(float64(n) / scalingDensity)
		in := workload.RequestSet(n, k, seed, side)
		tracer := obs.New()
		start := time.Now()
		s, err := planner.Plan(obs.WithTracer(ctx, tracer), in)
		if err != nil {
			return fmt.Errorf("scaling rung n=%d: %w", n, err)
		}
		total := time.Since(start).Seconds()
		sp := tracer.Start(obs.StageVerify)
		viol := repro.Verify(in, s)
		sp.End()
		sp = tracer.Start(obs.StageLowerBound)
		lb := repro.ComputeLowerBound(in)
		sp.End()
		if len(viol) > 0 {
			failures = append(failures, fmt.Sprintf("n=%d plan has %d feasibility violations, first %v", n, len(viol), viol[0]))
		}
		row := []string{export.I(n), export.F(side, 2), export.F(total, 3)}
		for _, st := range stages {
			row = append(row, export.F(tracer.StageSeconds(st), 3))
		}
		tb.AddRow(append(row, export.F(s.Longest/lb.Value, 3))...)
		for stage, limit := range budgets {
			if got := tracer.StageSeconds(stage); got > limit {
				failures = append(failures, fmt.Sprintf("n=%d stage %s took %.3fs, budget %.3fs", n, stage, got, limit))
			}
		}
	}
	if csv {
		if err := tb.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else if err := tb.WriteText(os.Stdout); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("scaling ladder failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// parseLadder parses the comma-separated rung sizes.
func parseLadder(ladder string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(ladder, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -scaling rung %q (want positive integers, comma-separated)", part)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("-scaling given but no rungs parsed from %q", ladder)
	}
	return ns, nil
}

// parseBudget parses "stage=seconds,stage=seconds" into limits. Stage
// names are validated against the tracer's canonical vocabulary: a typo
// like "typo=30" used to parse fine and then never match a recorded
// span, silently asserting nothing — now it is a hard error listing the
// known names.
func parseBudget(budget string) (map[string]float64, error) {
	known := make(map[string]bool)
	for _, s := range obs.KnownStages() {
		known[s] = true
	}
	out := map[string]float64{}
	for _, part := range strings.Split(budget, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		stage, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -budget entry %q (want stage=seconds)", part)
		}
		if !known[stage] {
			return nil, fmt.Errorf("unknown -budget stage %q (known stages: %s)",
				stage, strings.Join(obs.KnownStages(), ", "))
		}
		sec, err := strconv.ParseFloat(val, 64)
		if err != nil || sec <= 0 {
			return nil, fmt.Errorf("bad -budget seconds in %q", part)
		}
		out[stage] = sec
	}
	return out, nil
}
