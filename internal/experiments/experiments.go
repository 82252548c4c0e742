// Package experiments regenerates every figure of the paper's evaluation
// (Section VI): Figures 3, 4 and 5, each with an (a) panel — average
// longest tour duration — and a (b) panel — average dead duration per
// sensor over the one-year monitoring period. It also defines the
// ablation experiments called out in DESIGN.md.
//
// Each experiment sweeps one parameter, simulates `Instances` independent
// networks per sweep point for every algorithm (the paper uses 100; the
// default here is smaller for tractability and configurable), and reports
// the mean across instances, exactly like the paper's figures.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Instances is the number of random networks per sweep point
	// (paper: 100). 0 means 10.
	Instances int
	// Seed offsets the per-instance generator seeds, for variance
	// studies. Runs with equal seeds are fully reproducible.
	Seed int64
	// Duration is the simulated monitoring period; 0 means one year.
	Duration float64
	// BatchWindow is the dispatch batching window; 0 means the
	// harness default (24 h).
	BatchWindow float64
	// Verify runs the feasibility verifier inside every simulation
	// round and records violations.
	Verify bool
	// Progress, when non-nil, receives a line per completed cell. The
	// harness serializes the calls (through an obs.Progress sink), so
	// the function may be a plain closure over unshared state even
	// though cells complete on concurrent workers.
	Progress func(msg string)
	// Faults, when non-nil, is the fault-plan template applied to every
	// simulation cell. A zero template Seed is replaced by the cell's
	// instance seed, so instances see independent fault trajectories
	// while remaining reproducible. Figure "F" supplies its own per-point
	// plans and ignores this field.
	Faults *fault.Plan
}

func (o Options) withDefaults() Options {
	if o.Instances <= 0 {
		o.Instances = 10
	}
	if o.Duration <= 0 {
		o.Duration = sim.Year
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = sim.DefaultBatchWindow
	}
	return o
}

// Series is one algorithm's curve over the sweep.
type Series struct {
	// Label is the algorithm name.
	Label string `json:"label"`
	// Y has one mean value per sweep point (same order as Figure.X).
	Y []float64 `json:"y"`
	// Std has the matching standard deviations across instances.
	Std []float64 `json:"std"`
}

// Figure is a regenerated evaluation figure.
type Figure struct {
	// ID is the experiment id, e.g. "3a".
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// XLabel and YLabel name the axes, with units.
	XLabel string `json:"x_label"`
	YLabel string `json:"y_label"`
	// X holds the sweep points.
	X []float64 `json:"x"`
	// Series holds one curve per algorithm, paper order.
	Series []Series `json:"series"`
	// Violations accumulates feasibility violations when verification is
	// on; it must be zero.
	Violations int `json:"violations"`
}

// point identifies one simulation cell of the sweep grid.
type point struct {
	xi, pi, inst int
}

type cellResult struct {
	point
	longestH  float64 // hours
	deadMin   float64 // minutes
	violation int
}

// sweepSpec describes a parameter sweep.
type sweepSpec struct {
	id, title, xlabel string
	xs                []float64
	// setup returns the workload parameters and charger count for a
	// sweep value.
	setup func(x float64) (workload.Params, int)
	// faults, when non-nil, returns the fault plan for a sweep value and
	// cell seed (overriding Options.Faults). Figure "F" sweeps the MCV
	// breakdown rate through it.
	faults func(x float64, seed int64) *fault.Plan
}

// planners returns the paper's five algorithms in its presentation
// order, resolved through the planner registry. The figure harness
// sweeps exactly this set — registered extensions (BiLevel) enter the
// evaluation through the "contender" ablation instead, keeping the
// regenerated figures faithful to the paper's five curves.
func planners() []core.Planner {
	return registry.PaperPlanners()
}

func figure3() sweepSpec {
	return sweepSpec{
		id:     "3",
		title:  "varying the network size n (K = 2)",
		xlabel: "network size n",
		xs:     []float64{200, 400, 600, 800, 1000, 1200},
		setup: func(x float64) (workload.Params, int) {
			return workload.NewParams(int(x)), 2
		},
	}
}

func figure4() sweepSpec {
	return sweepSpec{
		id:     "4",
		title:  "varying the maximum data rate b_max (n = 1000, K = 2)",
		xlabel: "b_max (kbps)",
		xs:     []float64{10, 20, 30, 40, 50},
		setup: func(x float64) (workload.Params, int) {
			p := workload.NewParams(1000)
			p.BMaxBps = x * 1e3
			return p, 2
		},
	}
}

func figure5() sweepSpec {
	return sweepSpec{
		id:     "5",
		title:  "varying the number of chargers K (n = 1000)",
		xlabel: "number of mobile chargers K",
		xs:     []float64{1, 2, 3, 4, 5},
		setup: func(x float64) (workload.Params, int) {
			return workload.NewParams(1000), int(x)
		},
	}
}

// figureClustered is not in the paper: it sweeps the deployment's cluster
// count at n = 1000, K = 2 to show that multi-node charging's advantage
// grows with spatial density (clustered deployments are where a single
// sojourn location covers many sensors).
func figureClustered() sweepSpec {
	return sweepSpec{
		id:     "C",
		title:  "varying deployment clustering (n = 1000, K = 2; 0 = uniform)",
		xlabel: "number of deployment clusters",
		xs:     []float64{0, 32, 16, 8, 4},
		setup: func(x float64) (workload.Params, int) {
			p := workload.NewParams(1000)
			p.Clusters = int(x)
			p.ClusterStd = 6
			return p, 2
		},
	}
}

// figureFaults is not in the paper: it sweeps the per-tour MCV breakdown
// probability at n = 600, K = 3 under mild delay noise, measuring how
// gracefully each algorithm's schedules degrade when the online recovery
// engine redistributes broken chargers' tours. At high rates the fleet
// can be lost mid-year; such cells contribute their partial (degraded)
// metrics, exactly what the figure is about.
func figureFaults() sweepSpec {
	return sweepSpec{
		id:     "F",
		title:  "varying the MCV breakdown probability (n = 600, K = 3)",
		xlabel: "MCV breakdown probability per tour",
		xs:     []float64{0, 0.05, 0.1, 0.2},
		setup: func(x float64) (workload.Params, int) {
			return workload.NewParams(600), 3
		},
		faults: func(x float64, seed int64) *fault.Plan {
			return &fault.Plan{
				Seed:          seed,
				MCVFailRate:   x,
				TransientFrac: 0.5,
				RepairTime:    1800,
				TravelNoise:   0.05,
				ChargeNoise:   0.05,
			}
		},
	}
}

// Run executes the sweep behind the given figure pair and returns both
// panels: (a) average longest tour duration in hours and (b) average dead
// duration per sensor in minutes. id must be "3", "4" or "5" (the paper's
// figures), "C" (this reproduction's clustering extension) or "F" (the
// MCV breakdown-rate sweep).
//
// Run honors ctx: cancellation stops dispatching new cells, interrupts
// in-flight simulations, and returns the panels aggregated over the cells
// that did complete, together with an error wrapping ctx.Err() — so a
// deadline yields partial figures rather than nothing. Progress calls are
// serialized, and when ctx carries an obs.Tracer the per-cell planner and
// verifier stages accumulate on it along with an experiments.cells
// counter.
func Run(ctx context.Context, id string, opt Options) (a, b *Figure, err error) {
	var spec sweepSpec
	switch id {
	case "3":
		spec = figure3()
	case "4":
		spec = figure4()
	case "5":
		spec = figure5()
	case "C", "c":
		spec = figureClustered()
	case "F", "f":
		spec = figureFaults()
	default:
		return nil, nil, fmt.Errorf("experiments: unknown figure %q (want 3, 4, 5, C or F)", id)
	}
	return runSweep(ctx, spec, opt)
}

func runSweep(ctx context.Context, spec sweepSpec, opt Options) (a, b *Figure, err error) {
	opt = opt.withDefaults()
	ps := planners()
	tr := obs.FromContext(ctx)
	progress := obs.NewProgress(opt.Progress)

	var cells []point
	for xi := range spec.xs {
		for pi := range ps {
			for inst := 0; inst < opt.Instances; inst++ {
				cells = append(cells, point{xi: xi, pi: pi, inst: inst})
			}
		}
	}
	// Cells run on GOMAXPROCS workers. Their results land in slots indexed
	// by grid position and each cell's seed depends only on that position,
	// so the aggregation below — and hence the figure tables — is
	// byte-identical at any GOMAXPROCS.
	// done[ci] marks the cells whose results may enter the aggregation
	// (all of them on a clean run, the completed subset on a cancelled
	// one); it is written by exactly one worker and read only after
	// par.Do returns.
	results := make([]cellResult, len(cells))
	done := make([]bool, len(cells))
	doErr := par.Do(ctx, len(cells), 0, func(ctx context.Context, ci int) error {
		c := cells[ci]
		res, cerr := runCell(ctx, spec, opt, ps[c.pi], c)
		if cerr != nil {
			return cerr
		}
		results[ci] = *res
		done[ci] = true
		tr.Add("experiments.cells", 1)
		progress.Emit("fig%s %s=%v %s instance %d: longest %.1f h, dead %.1f min",
			spec.id, spec.xlabel, spec.xs[c.xi], ps[c.pi].Name(), c.inst,
			res.longestH, res.deadMin)
		return nil
	})
	if doErr != nil && ctx.Err() == nil {
		return nil, nil, doErr
	}

	// Aggregate into the two panels.
	a = &Figure{
		ID:     spec.id + "a",
		Title:  "Average longest tour duration, " + spec.title,
		XLabel: spec.xlabel,
		YLabel: "avg longest tour duration (h)",
		X:      spec.xs,
	}
	b = &Figure{
		ID:     spec.id + "b",
		Title:  "Average dead duration per sensor during T_M, " + spec.title,
		XLabel: spec.xlabel,
		YLabel: "avg dead duration per sensor (min)",
		X:      spec.xs,
	}
	for pi, p := range ps {
		sa := Series{Label: p.Name()}
		sb := Series{Label: p.Name()}
		for xi := range spec.xs {
			var accA, accB stats.Accumulator
			for ci, r := range results {
				if !done[ci] {
					continue // skipped by cancellation; keep it out of the means
				}
				if r.xi == xi && r.pi == pi {
					accA.Add(r.longestH)
					accB.Add(r.deadMin)
					a.Violations += r.violation
				}
			}
			sa.Y = append(sa.Y, accA.Mean())
			sa.Std = append(sa.Std, accA.StdDev())
			sb.Y = append(sb.Y, accB.Mean())
			sb.Std = append(sb.Std, accB.StdDev())
		}
		a.Series = append(a.Series, sa)
		b.Series = append(b.Series, sb)
	}
	b.Violations = a.Violations
	if cerr := ctx.Err(); cerr != nil {
		return a, b, fmt.Errorf("experiments: fig%s cancelled: %w", spec.id, cerr)
	}
	return a, b, nil
}

func runCell(ctx context.Context, spec sweepSpec, opt Options, planner core.Planner, c point) (*cellResult, error) {
	params, k := spec.setup(spec.xs[c.xi])
	// Instance seeds depend only on the sweep point and instance index,
	// so every algorithm sees the same 100 (or Instances) networks —
	// exactly the paper's protocol.
	seed := opt.Seed + int64(c.xi)*1009 + int64(c.inst) + 1
	nw, err := workload.Generate(params, seed)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Duration:    opt.Duration,
		BatchWindow: opt.BatchWindow,
		Verify:      opt.Verify,
	}
	switch {
	case spec.faults != nil:
		cfg.Faults = spec.faults(spec.xs[c.xi], seed)
	case opt.Faults != nil:
		fp := *opt.Faults
		if fp.Seed == 0 {
			fp.Seed = seed
		}
		cfg.Faults = &fp
	}
	res, err := sim.Run(ctx, nw, k, planner, cfg)
	if err != nil {
		// A fleet lost to injected breakdowns is a valid (maximally
		// degraded) outcome, not a cell failure: its partial metrics —
		// with dead time accrued to the horizon — enter the figure.
		if !(errors.Is(err, fault.ErrFleetLost) && res != nil) {
			return nil, fmt.Errorf("experiments: fig%s x=%v %s: %w", spec.id, spec.xs[c.xi], planner.Name(), err)
		}
	}
	return &cellResult{
		point:     c,
		longestH:  res.AvgLongest / 3600,
		deadMin:   res.AvgDeadPerSensor / 60,
		violation: res.Violations,
	}, nil
}

// Ablation identifiers. See RunAblation.
const (
	// AblationDispatch compares the paper's synchronized round-based
	// dispatch against independent per-charger dispatch over a full
	// simulated year (unlike the contender ablation, which plans single
	// rounds).
	AblationDispatch = "dispatch"
	// AblationPartial sweeps the partial-charging level (the model of the
	// paper's reference [15]) over year-long simulations.
	AblationPartial = "partial"
	// AblationContender pits Algorithm Appro against the registered
	// bi-level metaheuristic contender under two seeds on dense single
	// rounds — the judge for extensions that are not part of the paper's
	// five figure curves.
	AblationContender = "contender"
)

// AblationResult is one variant's aggregate outcome for a single dense
// planning round at a fixed request-set size.
type AblationResult struct {
	// Variant names the configuration.
	Variant string
	// N is the request-set size the round plans for.
	N int
	// LongestH is the mean longest tour delay in hours.
	LongestH float64
	// Stops is the mean number of sojourn stops across the K tours.
	Stops float64
	// WaitS is the mean total conflict-avoidance wait in seconds.
	WaitS float64
}

// ablationSizes are the request densities the ablations plan at. Multi-node
// consolidation — and hence the stop-set choices that separate Appro from
// BiLevel — only binds on dense request sets, so the contender ablation
// plans single rounds at these sizes rather than running the
// (sparser-batch) year-long simulation.
var ablationSizes = []int{300, 600, 1200}

// RunAblation plans dense single rounds (K = 2, paper field parameters)
// under every variant of the "contender" ablation and returns one row per
// (variant, request-set size) pair. The "dispatch" ablation instead runs
// year-long simulations (one per network size in ablationSizes) comparing
// the two dispatch protocols; its LongestH column is then the mean
// longest tour duration and WaitS the mean dead time per sensor in
// seconds.
//
// RunAblation honors ctx like Run does: on cancellation it returns the
// rows accumulated so far together with an error wrapping ctx.Err().
func RunAblation(ctx context.Context, id string, opt Options) ([]AblationResult, error) {
	opt = opt.withDefaults()
	switch id {
	case AblationDispatch:
		return runDispatchAblation(ctx, opt)
	case AblationPartial:
		return runPartialAblation(ctx, opt)
	case AblationContender:
		return runContenderAblation(ctx, opt)
	}
	return nil, fmt.Errorf("experiments: unknown ablation %q", id)
}

// runContenderAblation plans dense single rounds with Appro and with
// BiLevel under seeds 1 and 2.
func runContenderAblation(ctx context.Context, opt Options) ([]AblationResult, error) {
	const id = AblationContender
	// Every variant resolves through the planner registry, like the
	// figure harness and the serving layer.
	variants := []struct {
		name    string
		planner core.Planner
	}{
		{"appro", registry.MustNew("Appro", nil)},
		{"bilevel-seed-1", registry.MustNew("BiLevel", &core.Options{Seed: 1})},
		{"bilevel-seed-2", registry.MustNew("BiLevel", &core.Options{Seed: 2})},
	}

	progress := obs.NewProgress(opt.Progress)
	var out []AblationResult
	for _, v := range variants {
		for _, n := range ablationSizes {
			var accL, accS, accW stats.Accumulator
			for inst := 0; inst < opt.Instances; inst++ {
				if err := ctx.Err(); err != nil {
					return out, fmt.Errorf("experiments: ablation %s: %w", id, err)
				}
				in := denseRound(n, opt.Seed+int64(inst)+1)
				s, err := v.planner.Plan(ctx, in)
				if err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return out, fmt.Errorf("experiments: ablation %s: %w", id, cerr)
					}
					return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
				}
				if opt.Verify {
					if vs := core.Verify(in, s); len(vs) > 0 {
						return nil, fmt.Errorf("experiments: ablation %s n=%d: infeasible: %v", v.name, n, vs[0])
					}
				}
				accL.Add(s.Longest / 3600)
				accS.Add(float64(s.NumStops()))
				accW.Add(s.WaitTime)
			}
			out = append(out, AblationResult{
				Variant:  v.name,
				N:        n,
				LongestH: accL.Mean(),
				Stops:    accS.Mean(),
				WaitS:    accW.Mean(),
			})
		}
		progress.Emit("ablation %s: %s done", id, v.name)
	}
	return out, nil
}

// yearVariant is one row of a year-long ablation: Appro with K = 2 on
// networks of n sensors, simulated under cfg (runYearAblation fills in its
// Duration, BatchWindow and Verify from the options).
type yearVariant struct {
	name string
	n    int // network size
	rowN int // the row's N column
	cfg  sim.Config
}

// runDispatchAblation simulates a year under both dispatch protocols with
// Appro, per network size.
func runDispatchAblation(ctx context.Context, opt Options) ([]AblationResult, error) {
	var vs []yearVariant
	for _, mode := range []sim.DispatchMode{sim.DispatchSynchronized, sim.DispatchIndependent} {
		for _, n := range ablationSizes {
			vs = append(vs, yearVariant{name: "dispatch-" + mode.String(), n: n, rowN: n, cfg: sim.Config{Dispatch: mode}})
		}
	}
	return runYearAblation(ctx, AblationDispatch, opt, vs)
}

// runPartialAblation simulates a year under Appro at n = 1000, K = 2 for
// several partial-charging levels; N encodes the charging level in
// percent.
func runPartialAblation(ctx context.Context, opt Options) ([]AblationResult, error) {
	var vs []yearVariant
	for _, level := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5} {
		pct := int(level * 100)
		vs = append(vs, yearVariant{name: fmt.Sprintf("charge-to-%d%%", pct), n: 1000, rowN: pct, cfg: sim.Config{ChargeLevel: level}})
	}
	return runYearAblation(ctx, AblationPartial, opt, vs)
}

// runYearAblation simulates each variant on opt.Instances networks,
// seeded alike for every variant, and returns one row per variant:
// LongestH is the mean longest tour duration, WaitS the mean dead time per
// sensor in seconds and Stops the mean stops per round. Under opt.Verify a
// feasibility violation is an error. On cancellation it returns the rows
// completed so far.
func runYearAblation(ctx context.Context, id string, opt Options, variants []yearVariant) ([]AblationResult, error) {
	progress := obs.NewProgress(opt.Progress)
	var out []AblationResult
	for _, v := range variants {
		cfg := v.cfg
		cfg.Duration, cfg.BatchWindow, cfg.Verify = opt.Duration, opt.BatchWindow, opt.Verify
		var accL, accD, accS stats.Accumulator
		for inst := 0; inst < opt.Instances; inst++ {
			if err := ctx.Err(); err != nil {
				return out, fmt.Errorf("experiments: ablation %s: %w", id, err)
			}
			nw, err := workload.Generate(workload.NewParams(v.n), opt.Seed+int64(inst)+1)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(ctx, nw, 2, core.ApproPlanner{}, cfg)
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return out, fmt.Errorf("experiments: ablation %s: %w", id, cerr)
				}
				return nil, fmt.Errorf("experiments: ablation %s n=%d: %w", v.name, v.n, err)
			}
			if opt.Verify && res.Violations > 0 {
				return nil, fmt.Errorf("experiments: ablation %s n=%d: %d violations, first: %s", v.name, v.n, res.Violations, res.FirstViolation)
			}
			accL.Add(res.AvgLongest / 3600)
			accD.Add(res.AvgDeadPerSensor)
			if len(res.Rounds) > 0 {
				accS.Add(res.MeanStops())
			}
		}
		out = append(out, AblationResult{
			Variant:  v.name,
			N:        v.rowN,
			LongestH: accL.Mean(),
			Stops:    accS.Mean(),
			WaitS:    accD.Mean(),
		})
		progress.Emit("ablation %s: %s n=%d done", id, v.name, v.n)
	}
	return out, nil
}

// denseRound synthesizes a dense request set with the paper's planning
// parameters: uniform positions in the 100 x 100 m field, charge durations
// in [1.2 h, 1.5 h] (sensors requested at ~20% residual capacity).
func denseRound(n int, seed int64) *core.Instance {
	nw, err := workload.Generate(workload.NewParams(n), seed)
	if err != nil {
		// NewParams(n) with n >= 0 always validates.
		panic(err)
	}
	in := &core.Instance{Depot: nw.Depot, Gamma: nw.Gamma, Speed: nw.Speed, K: 2}
	for i := range nw.Sensors {
		frac := 0.05 + 0.15*float64(i%4)/4 // 5-20% residual
		in.Requests = append(in.Requests, core.Request{
			Pos:      nw.Sensors[i].Pos,
			Duration: (1 - frac) * nw.Sensors[i].Battery.Capacity / nw.ChargeRate,
			Lifetime: float64(1+i%7) * 86400,
		})
	}
	return in
}
