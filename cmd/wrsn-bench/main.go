// Command wrsn-bench regenerates the paper's evaluation figures.
//
// Every figure of Section VI is covered: Figure 3 (network size sweep),
// Figure 4 (maximum data rate sweep) and Figure 5 (charger count sweep),
// each with its (a) average-longest-tour-duration panel and (b)
// average-dead-duration panel, plus the design ablations documented in
// DESIGN.md. Two extensions beyond the paper are available on request:
// figure C sweeps deployment clustering and figure F sweeps the MCV
// breakdown probability under the fault-injection subsystem.
//
// Usage:
//
//	wrsn-bench -fig all -instances 10
//	wrsn-bench -fig 3 -instances 30 -csv
//	wrsn-bench -fig F -instances 10 -days 90
//	wrsn-bench -fig ablation
//	wrsn-bench -scaling 1000,10000 -seed 1 -budget kminmax=30
//
// Output is one aligned text table per panel (x column plus one column per
// algorithm), or CSV with -csv.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/chart"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	var (
		fig        = flag.String("fig", "all", `figure to regenerate: "3", "4", "5" (paper), "C" (clustering extension), "F" (MCV breakdown-rate sweep), "all" or "ablation"`)
		scaling    = flag.String("scaling", "", `instead of figures, run the BENCH_scaling.json ladder: comma-separated request counts (e.g. "1000,10000"), one cold Appro plan each on a density-scaled field, verified and bounded, with per-stage timings and the lower-bound gap; a feasibility violation exits nonzero`)
		scalingK   = flag.Int("scaling-k", 4, "chargers per scaling rung")
		budget     = flag.String("budget", "", `per-stage time budgets asserted on every scaling rung, e.g. "kminmax=30,mis=20" (seconds; stage names validated against the tracer vocabulary); a breach exits nonzero`)
		instances  = flag.Int("instances", 10, "random networks per sweep point (paper: 100)")
		days       = flag.Float64("days", 365, "monitored period in days (paper: one year)")
		window     = flag.Float64("window", sim.DefaultBatchWindow/3600, "dispatch batching window in hours")
		seed       = flag.Int64("seed", 0, "base seed for instance generation")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		svgDir     = flag.String("svgdir", "", "also render each figure panel as an SVG line chart into this directory")
		jsonDir    = flag.String("jsondir", "", "also write each figure panel as machine-readable JSON into this directory")
		verify     = flag.Bool("verify", false, "run the feasibility verifier every round")
		quiet      = flag.Bool("quiet", false, "suppress progress lines")
		timeout    = flag.Duration("timeout", 0, "abort after this long, reporting whatever completed (0 = no limit)")
		traceJSON  = flag.String("trace-json", "", `write aggregated stage timings and counters as JSON to this file ("-" for stderr)`)
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile of the sweep to this file")
	)
	flag.Parse()

	opt := experiments.Options{
		Instances:   *instances,
		Seed:        *seed,
		Duration:    *days * 86400,
		BatchWindow: *window * 3600,
		Verify:      *verify,
	}
	if !*quiet {
		opt.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}

	// SIGINT cancels the sweep gracefully: completed cells still make it
	// into the (partial) figures. A second SIGINT kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tracer *obs.Tracer
	if *traceJSON != "" {
		tracer = obs.New()
		ctx = obs.WithTracer(ctx, tracer)
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-bench:", err)
		os.Exit(1)
	}

	if *scaling != "" {
		err = runScaling(ctx, *scaling, *scalingK, *seed, *budget, *csv)
	} else {
		err = run(ctx, *fig, opt, *csv, *svgDir, *jsonDir)
	}
	if tracer != nil {
		if terr := writeTrace(*traceJSON, tracer); terr != nil && err == nil {
			err = terr
		}
	}
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "wrsn-bench: partial — cancelled:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "wrsn-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, fig string, opt experiments.Options, csv bool, svgDir, jsonDir string) error {
	start := time.Now()
	switch fig {
	case "3", "4", "5", "C", "c", "F", "f":
		if err := runFigure(ctx, fig, opt, csv, svgDir, jsonDir); err != nil {
			return err
		}
	case "all":
		for _, id := range []string{"3", "4", "5", "C"} {
			if err := runFigure(ctx, id, opt, csv, svgDir, jsonDir); err != nil {
				return err
			}
		}
	case "ablation":
		for _, id := range []string{experiments.AblationDispatch, experiments.AblationPartial, experiments.AblationContender} {
			if err := runAblation(ctx, id, opt, csv); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown -fig %q", fig)
	}
	fmt.Fprintf(os.Stderr, "total %s\n", time.Since(start).Round(time.Second))
	return nil
}

func runFigure(ctx context.Context, id string, opt experiments.Options, csv bool, svgDir, jsonDir string) error {
	a, b, err := experiments.Run(ctx, id, opt)
	if err != nil && a == nil {
		return err
	}
	for _, f := range []*experiments.Figure{a, b} {
		if perr := printFigure(f, opt, csv); perr != nil {
			return perr
		}
		if svgDir != "" {
			if serr := writeSVG(svgDir, f); serr != nil {
				return serr
			}
		}
		if jsonDir != "" {
			if jerr := writeJSON(jsonDir, f); jerr != nil {
				return jerr
			}
		}
	}
	if err != nil {
		return err // cancelled: the printed panels aggregate completed cells only
	}
	if a.Violations > 0 {
		return fmt.Errorf("figure %s: %d feasibility violations", id, a.Violations)
	}
	return nil
}

// writeTrace dumps the tracer's aggregated report as JSON to the path
// ("-" means stderr).
func writeTrace(path string, t *obs.Tracer) error {
	if path == "-" {
		return t.WriteJSON(os.Stderr)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := t.WriteJSON(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func printFigure(f *experiments.Figure, opt experiments.Options, csv bool) error {
	title := fmt.Sprintf("Figure %s: %s [%d instances, %.0f days]",
		f.ID, f.Title, opt.Instances, opt.Duration/86400)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	tb := export.NewTable(title, header...)
	// Integer sweeps (n, K, kbps) print clean; fractional sweeps like
	// figure F's breakdown probabilities need the decimals kept.
	xDec := 0
	for _, x := range f.X {
		if x != math.Trunc(x) {
			xDec = 2
			break
		}
	}
	for xi, x := range f.X {
		row := []string{export.F(x, xDec)}
		for _, s := range f.Series {
			row = append(row, export.F(s.Y[xi], 1))
		}
		tb.AddRow(row...)
	}
	if csv {
		if err := tb.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else if err := tb.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func runAblation(ctx context.Context, id string, opt experiments.Options, csv bool) error {
	rows, err := experiments.RunAblation(ctx, id, opt)
	if err != nil && len(rows) == 0 {
		return err
	}
	cancelled := err
	title := fmt.Sprintf("Ablation %q — dense single rounds, K=2 (%d instances)", id, opt.Instances)
	lastCol := "conflict wait (s)"
	if id == experiments.AblationDispatch || id == experiments.AblationPartial {
		title = fmt.Sprintf("Ablation %q — one-year simulations, K=2 (%d instances)", id, opt.Instances)
		lastCol = "dead per sensor (s)"
	}
	tb := export.NewTable(title,
		"variant", "n", "longest (h)", "stops/round", lastCol)
	for _, r := range rows {
		tb.AddRow(r.Variant, export.I(r.N), export.F(r.LongestH, 2), export.F(r.Stops, 1), export.F(r.WaitS, 1))
	}
	if csv {
		if err := tb.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else if err := tb.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return cancelled
}

// writeSVG renders one figure panel into dir as fig<ID>.svg.
func writeSVG(dir string, f *experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line := &chart.Line{
		Title:  fmt.Sprintf("Figure %s: %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		X:      f.X,
	}
	for _, s := range f.Series {
		line.Series = append(line.Series, chart.Series{Label: s.Label, Y: s.Y})
	}
	path := filepath.Join(dir, "fig"+f.ID+".svg")
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := line.SVG(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// writeJSON dumps one figure panel into dir as fig<ID>.json.
func writeJSON(dir string, f *experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "fig"+f.ID+".json")
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
