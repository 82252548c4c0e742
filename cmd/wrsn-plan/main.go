// Command wrsn-plan plans one round of charging tours for a snapshot
// request set, prints the tours with their delays and the feasibility
// report, and optionally renders the schedule to SVG.
//
// Usage:
//
//	wrsn-plan -n 600 -k 3 -planner Appro -svg tours.svg
//	wrsn-plan -n 300 -k 2 -planner K-minMax -compare
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/workload"
)

func main() {
	var (
		n          = flag.Int("n", 400, "number of charging requests in V_s")
		k          = flag.Int("k", 2, "number of mobile chargers")
		name       = flag.String("planner", "Appro", "algorithm: "+strings.Join(repro.PlannerNames(), ", ")+" (case-insensitive, aliases accepted)")
		seed       = flag.Int64("seed", 1, "request set seed")
		field      = flag.Float64("field", 100, "side of the square deployment field in meters (scale ~ sqrt(n) to keep the paper's density at large n)")
		svgPath    = flag.String("svg", "", "write an SVG rendering of the tours to this file")
		gantt      = flag.String("gantt", "", "write an SVG timeline of charger activity to this file")
		compare    = flag.Bool("compare", false, "plan with every registered algorithm and compare objectives")
		jsonOut    = flag.Bool("json", false, "print the schedule as canonical JSON instead of text (byte-identical to a wrsn-serve /v1/plan response)")
		dumpInst   = flag.String("dump-instance", "", `write the generated instance as JSON to this file ("-" for stdout) — the bare-instance body /v1/plan accepts`)
		timeout    = flag.Duration("timeout", 0, "abort planning after this long (0 = no limit)")
		traceJSON  = flag.String("trace-json", "", `write per-stage timings and counters as JSON to this file ("-" for stderr)`)
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tracer *repro.Tracer
	if *traceJSON != "" {
		tracer = repro.NewTracer()
		ctx = repro.WithTracer(ctx, tracer)
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-plan:", err)
		os.Exit(1)
	}

	err = run(ctx, *n, *k, *name, *seed, *field, *svgPath, *gantt, *compare, *jsonOut, *dumpInst)
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
			fmt.Fprintln(os.Stderr, "wrsn-plan: cancelled:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "wrsn-plan:", err)
		os.Exit(1)
	}
}

// writeTrace dumps the tracer's aggregated report as JSON to the path
// ("-" means stderr).
func writeTrace(path string, t *repro.Tracer) error {
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

// writeInstance dumps the instance as JSON to path ("-" means stdout).
func writeInstance(path string, in *repro.Instance) error {
	if path == "-" {
		return export.WriteInstance(os.Stdout, in)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export.WriteInstance(f, in); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func run(ctx context.Context, n, k int, name string, seed int64, field float64, svgPath, ganttPath string, compare, jsonOut bool, dumpInst string) error {
	in := workload.RequestSet(n, k, seed, field)
	if dumpInst != "" {
		if err := writeInstance(dumpInst, in); err != nil {
			return err
		}
	}
	if jsonOut {
		if compare {
			return errors.New("-json is incompatible with -compare")
		}
		planner, err := repro.NewPlanner(name)
		if err != nil {
			return err
		}
		s, err := planner.Plan(ctx, in)
		if err != nil {
			return err
		}
		// The one canonical schedule encoding, shared with the planning
		// service: wrsn-serve's /v1/plan response for this instance is
		// byte-identical to this output.
		return export.WriteSchedule(os.Stdout, s)
	}

	if compare {
		ps := repro.Planners()
		// The registered algorithms run concurrently; results come back
		// in planner order so the table is identical at any GOMAXPROCS.
		schedules, err := repro.PlanConcurrently(ctx, in, ps)
		if err != nil {
			return err
		}
		tb := export.NewTable(
			fmt.Sprintf("one planning round, n=%d requests, K=%d", n, k),
			"algorithm", "longest delay (h)", "stops", "total wait (s)", "violations")
		for i, p := range ps {
			s := schedules[i]
			viol := len(repro.VerifyScheme(in, s))
			tb.AddRow(p.Name(), export.F(s.Longest/3600, 2), export.I(s.NumStops()),
				export.F(s.WaitTime, 1), export.I(viol))
		}
		return tb.WriteText(os.Stdout)
	}

	planner, err := repro.NewPlanner(name)
	if err != nil {
		return err
	}
	s, err := planner.Plan(ctx, in)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d requests, K=%d -> longest delay %.2f h, %d stops\n",
		planner.Name(), n, k, s.Longest/3600, s.NumStops())
	for ki, tour := range s.Tours {
		fmt.Printf("  charger %d: %d stops, delay %.2f h\n", ki+1, len(tour.Stops), tour.Delay/3600)
	}
	tracer := obs.FromContext(ctx)
	sp := tracer.Start(obs.StageVerify)
	viol := len(repro.VerifyScheme(in, s))
	sp.End()
	if viol != 0 {
		return fmt.Errorf("%d feasibility violations", viol)
	}
	fmt.Println("feasibility: OK (coverage, disjointness, timing, no simultaneous charging)")

	// Quality report: a provable lower bound on the optimum and, for an
	// Appro plan, the instance's theoretical approximation guarantee
	// (Theorem 1), which bounds Appro's plans only.
	sp = tracer.Start(obs.StageLowerBound)
	lb := repro.ComputeLowerBound(in)
	sp.End()
	if lb.Value > 0 {
		fmt.Printf("lower bound on optimum:   %.2f h (farthest %.2f, packing %.2f+%.2f over %d packed)\n",
			lb.Value/3600, lb.Farthest/3600, lb.PackingWork/3600, lb.PackingTravel/3600, lb.PackingSize)
		fmt.Printf("empirical approx factor:  <= %.2f\n", s.Longest/lb.Value)
	}
	if planner.Name() == repro.NewApproPlanner().Name() {
		if ana, err := repro.Analyze(ctx, in); err == nil {
			fmt.Printf("theoretical guarantee:    %.1f (Delta_H=%d <= %d, tau_max/tau_min=%.2f, |S_I|=%d, |V'_H|=%d)\n",
				ana.Ratio, ana.DeltaH, core.LemmaTwoBound, ana.TauMax/ana.TauMin, ana.SI, ana.VH)
		} else if ctx.Err() != nil {
			fmt.Println("theoretical guarantee:    skipped (deadline reached after planning)")
		}
	}

	if svgPath != "" {
		f, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := render.SVG(f, in, s, 800); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", svgPath)
	}
	if ganttPath != "" {
		f, err := os.Create(ganttPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := render.Gantt(f, in, s, 1000); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", ganttPath)
	}
	return nil
}
