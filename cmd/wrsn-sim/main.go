// Command wrsn-sim runs one full evaluation simulation: it generates a
// WRSN with the paper's parameters, monitors it for the configured period
// under a chosen scheduling algorithm, and reports per-round and aggregate
// statistics.
//
// Usage:
//
//	wrsn-sim -n 1000 -k 2 -planner Appro -days 365
//	wrsn-sim -n 1200 -k 2 -planner K-minMax -rounds
//	wrsn-sim -n 600 -k 3 -faults mcv=0.1,transient=0.5,travel-noise=0.05 -fault-seed 7
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
	"repro/internal/export"
)

func main() {
	var (
		n       = flag.Int("n", 1000, "number of sensors (paper: 200..1200)")
		k       = flag.Int("k", 2, "number of mobile chargers (paper: 1..5)")
		name    = flag.String("planner", "Appro", "algorithm: "+strings.Join(repro.PlannerNames(), ", ")+" (case-insensitive, aliases accepted)")
		days    = flag.Float64("days", 365, "monitored period in days")
		window  = flag.Float64("window", repro.DefaultBatchWindow/3600, "dispatch batching window in hours")
		seed    = flag.Int64("seed", 1, "network generation seed")
		bmax    = flag.Float64("bmax", 50, "maximum data rate in kbps")
		verify  = flag.Bool("verify", true, "run the feasibility verifier every round")
		rounds  = flag.Bool("rounds", false, "print the per-round table")
		cluster = flag.Int("clusters", 0, "place sensors in this many clusters instead of uniformly")
		load    = flag.String("load", "", "load the network from this JSON file (as written by wrsn-gen) instead of generating one")
		level   = flag.Float64("level", 1.0, "partial-charging level: top sensors up to this fraction of capacity")
		indep   = flag.Bool("independent", false, "use independent per-charger dispatch instead of synchronized rounds")
		trace   = flag.String("trace", "", "write a JSONL event trace (dispatch/charge/dead) to this file")
		timeout = flag.Duration("timeout", 0, "abort the simulation after this long, reporting the partial run (0 = no limit)")
		faults  = flag.String("faults", "", "inject faults per this compact spec, e.g. mcv=0.1,transient=0.5,travel-noise=0.05 (see repro.ParseFaultSpec)")
		fseed   = flag.Int64("fault-seed", 0, "fault-injection seed (0 = reuse -seed); equal seeds replay identical faults")
		fspec   = flag.String("fault-spec", "", "load the full fault plan from this JSON file instead of -faults")
	)
	flag.Parse()

	// SIGINT cancels gracefully: the statistics of the simulated span so
	// far are still reported. A second SIGINT kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, runOpts{
		n: *n, k: *k, name: *name, days: *days, windowH: *window,
		seed: *seed, bmaxKbps: *bmax, clusters: *cluster, load: *load,
		level: *level, independent: *indep, verify: *verify, printRounds: *rounds,
		trace: *trace, faults: *faults, faultSeed: *fseed, faultSpec: *fspec,
	}); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "wrsn-sim: partial — cancelled:", err)
			os.Exit(2)
		}
		if errors.Is(err, repro.ErrFleetLost) {
			fmt.Fprintln(os.Stderr, "wrsn-sim: degraded —", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "wrsn-sim:", err)
		os.Exit(1)
	}
}

// runOpts carries the command's flag values.
type runOpts struct {
	n, k, clusters          int
	name, load              string
	days, windowH, bmaxKbps float64
	level                   float64
	seed                    int64
	independent             bool
	verify, printRounds     bool
	trace                   string
	faults, faultSpec       string
	faultSeed               int64
}

// faultPlan resolves the three fault flags into a plan (or nil when fault
// injection is off): -fault-spec loads a full JSON plan, -faults parses the
// compact spec, and -fault-seed (defaulting to the network seed) makes the
// injected faults replayable.
func (o runOpts) faultPlan() (*repro.FaultPlan, error) {
	var plan *repro.FaultPlan
	switch {
	case o.faultSpec != "":
		f, err := os.Open(o.faultSpec)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		plan, err = repro.LoadFaultPlan(f)
		if err != nil {
			return nil, fmt.Errorf("fault spec %s: %w", o.faultSpec, err)
		}
	case o.faults != "":
		var err error
		plan, err = repro.ParseFaultSpec(o.faults)
		if err != nil {
			return nil, err
		}
	default:
		return nil, nil
	}
	if o.faultSeed != 0 {
		plan.Seed = o.faultSeed
	} else if plan.Seed == 0 {
		plan.Seed = o.seed
	}
	return plan, nil
}

func run(ctx context.Context, o runOpts) error {
	n, k, name := o.n, o.k, o.name
	days, windowH, seed := o.days, o.windowH, o.seed
	bmaxKbps, clusters, load := o.bmaxKbps, o.clusters, o.load
	verify, printRounds := o.verify, o.printRounds
	planner, err := repro.NewPlanner(name)
	if err != nil {
		return err
	}
	var nw *repro.Network
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		nw, err = repro.LoadNetwork(f)
		f.Close()
		if err != nil {
			return err
		}
		n = len(nw.Sensors)
	} else {
		params := repro.NewNetworkParams(n)
		params.BMaxBps = bmaxKbps * 1e3
		params.Clusters = clusters
		nw, err = repro.GenerateNetwork(params, seed)
		if err != nil {
			return err
		}
	}
	fmt.Printf("network: n=%d, field %.0fx%.0f m, total draw %.2f W, K=%d, planner %s\n",
		n, nw.Field.Width(), nw.Field.Height(), nw.TotalDraw(), k, planner.Name())

	dispatch := repro.DispatchSynchronized
	if o.independent {
		dispatch = repro.DispatchIndependent
	}
	plan, err := o.faultPlan()
	if err != nil {
		return err
	}
	cfg := repro.SimConfig{
		Duration:    days * 86400,
		BatchWindow: windowH * 3600,
		ChargeLevel: o.level,
		Dispatch:    dispatch,
		Verify:      verify,
		Faults:      plan,
	}
	if o.trace != "" {
		tf, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		defer tf.Close()
		cfg.Trace = tf
	}
	res, simErr := repro.Simulate(ctx, nw, k, planner, cfg)
	if simErr != nil && res == nil {
		return simErr
	}
	if simErr != nil {
		if errors.Is(simErr, repro.ErrFleetLost) {
			fmt.Printf("fleet lost — statistics up to the %.1f-day horizon:\n", res.End/86400)
		} else {
			fmt.Printf("cancelled after %.1f simulated days — partial statistics:\n", res.End/86400)
		}
	}

	if printRounds {
		tb := export.NewTable("per-round log",
			"round", "start (d)", "batch", "stops", "longest (h)", "wait (s)")
		for i, r := range res.Rounds {
			tb.AddRow(export.I(i+1), export.F(r.Start/86400, 2), export.I(r.Batch),
				export.I(r.Stops), export.F(r.Longest/3600, 2), export.F(r.Wait, 1))
		}
		if err := tb.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	fmt.Printf("rounds:                  %d (mean batch %.1f, mean stops %.1f, consolidation %.2fx)\n",
		len(res.Rounds), res.MeanBatch(), res.MeanStops(), res.ConsolidationFactor())
	fmt.Printf("avg longest tour:        %.2f h\n", res.AvgLongest/3600)
	fmt.Printf("max longest tour:        %.2f h\n", res.MaxLongest/3600)
	fmt.Printf("avg dead per sensor:     %.1f min\n", res.AvgDeadPerSensor/60)
	fmt.Printf("sensors that ever died:  %d / %d\n", res.DeadSensors, n)
	fmt.Printf("charges delivered:       %d (%.1f kJ)\n", res.Charges, res.EnergyDelivered/1000)
	if fs := res.Faults; fs != nil {
		fmt.Printf("mcv breakdowns:          %d (%d transient, %d permanent; %d repair attempts, %.1f h in repair)\n",
			fs.MCVFailures, fs.Transient, fs.Permanent, fs.Retries, fs.RepairSeconds/3600)
		fmt.Printf("surviving chargers:      %d / %d\n", fs.SurvivingMCVs, k)
		fmt.Printf("stops redistributed:     %d (%d left unserved)\n", fs.Redistributed, fs.Unserved)
		if fs.SensorFailures > 0 || fs.Bursts > 0 {
			fmt.Printf("world events:            %d sensor failures, %d request bursts\n", fs.SensorFailures, fs.Bursts)
		}
		fmt.Printf("delay inflation:         %.3fx (realized vs planned)\n", fs.DelayInflation())
	}
	if verify {
		fmt.Printf("feasibility violations:  %d\n", res.Violations)
		if res.Violations > 0 {
			return fmt.Errorf("%d feasibility violations (first: %s)", res.Violations, res.FirstViolation)
		}
	}
	return simErr
}
