package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/wrsn"
)

func smallNetwork(t *testing.T, n int, seed int64) *wrsn.Network {
	t.Helper()
	nw, err := workload.Generate(workload.NewParams(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRunValidation(t *testing.T) {
	nw := smallNetwork(t, 10, 1)
	if _, err := Run(context.Background(), nw, 0, core.ApproPlanner{}, Config{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(context.Background(), nw, 2, nil, Config{}); err == nil {
		t.Error("nil planner accepted")
	}
	bad := *nw
	bad.Speed = 0
	if _, err := Run(context.Background(), &bad, 2, core.ApproPlanner{}, Config{}); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestRunShortHorizonAllPlanners(t *testing.T) {
	nw := smallNetwork(t, 60, 2)
	cfg := Config{Duration: 30 * 86400, Verify: true}
	planners := append([]core.Planner{core.ApproPlanner{}}, baselines.All()...)
	for _, p := range planners {
		res, err := Run(context.Background(), nw, 2, p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Violations != 0 {
			t.Errorf("%s: %d feasibility violations", p.Name(), res.Violations)
		}
		if len(res.Rounds) == 0 {
			t.Errorf("%s: no rounds in 30 days", p.Name())
		}
		if res.Charges == 0 || res.EnergyDelivered <= 0 {
			t.Errorf("%s: no charging happened: %+v", p.Name(), res)
		}
		if res.AvgLongest <= 0 || res.MaxLongest < res.AvgLongest {
			t.Errorf("%s: inconsistent longest stats: avg %v max %v", p.Name(), res.AvgLongest, res.MaxLongest)
		}
		if res.End < cfg.Duration {
			t.Errorf("%s: simulation ended early at %v", p.Name(), res.End)
		}
	}
}

func TestRunDoesNotMutateNetwork(t *testing.T) {
	nw := smallNetwork(t, 40, 3)
	before := make([]float64, len(nw.Sensors))
	for i := range nw.Sensors {
		before[i] = nw.Sensors[i].Battery.Residual
	}
	if _, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{Duration: 20 * 86400}); err != nil {
		t.Fatal(err)
	}
	for i := range nw.Sensors {
		if nw.Sensors[i].Battery.Residual != before[i] {
			t.Fatal("Run mutated the input network")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	nw := smallNetwork(t, 50, 4)
	a, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{Duration: 30 * 86400})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{Duration: 30 * 86400})
	if err != nil {
		t.Fatal(err)
	}
	if a.Charges != b.Charges || a.AvgLongest != b.AvgLongest || len(a.Rounds) != len(b.Rounds) {
		t.Error("simulation is not deterministic")
	}
}

func TestRunMaxRounds(t *testing.T) {
	nw := smallNetwork(t, 60, 5)
	res, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{Duration: Year, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) > 3 {
		t.Errorf("rounds = %d, want <= 3", len(res.Rounds))
	}
}

func TestRunNoDrawNoRounds(t *testing.T) {
	nw := smallNetwork(t, 10, 6)
	for i := range nw.Sensors {
		nw.Sensors[i].Draw = 0
	}
	res, err := Run(context.Background(), nw, 1, core.ApproPlanner{}, Config{Duration: 86400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 0 || res.AvgDeadPerSensor != 0 {
		t.Errorf("zero-draw network should idle: %+v", res)
	}
}

func TestRoundBatchesGrowWithBacklog(t *testing.T) {
	// Sanity: batches should track request accumulation — over a longer
	// horizon at least one round serves more than one sensor.
	nw := smallNetwork(t, 150, 7)
	res, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{Duration: 60 * 86400})
	if err != nil {
		t.Fatal(err)
	}
	maxBatch := 0
	for _, r := range res.Rounds {
		if r.Batch > maxBatch {
			maxBatch = r.Batch
		}
	}
	if maxBatch < 2 {
		t.Errorf("max batch = %d; expected batching under load", maxBatch)
	}
}

func TestSensorStateDeadAccounting(t *testing.T) {
	s := sensorState{residual: 100, draw: 1, capacity: 1000, deadAt: -1}
	s.advanceTo(50)
	if s.residual != 50 || s.dead != 0 {
		t.Fatalf("state after 50 s: %+v", s)
	}
	s.advanceTo(200) // dies at t=100
	if s.residual != 0 || math.Abs(s.dead-100) > 1e-9 || !s.died {
		t.Fatalf("state after death: %+v", s)
	}
	delivered := s.chargeAt(250, 1) // 50 more dead seconds
	if math.Abs(s.dead-150) > 1e-9 {
		t.Errorf("dead = %v, want 150", s.dead)
	}
	if delivered != 1000 || s.residual != 1000 {
		t.Errorf("charge: delivered %v residual %v", delivered, s.residual)
	}
	// Time never goes backwards.
	s.advanceTo(100)
	if s.residual != 1000 {
		t.Error("advanceTo into the past changed state")
	}
}

func TestAvgDeadZeroWhenKeptAlive(t *testing.T) {
	// Tiny, lightly loaded network: nothing should ever die.
	nw := smallNetwork(t, 20, 8)
	res, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{Duration: 90 * 86400})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDeadPerSensor != 0 || res.DeadSensors != 0 {
		t.Errorf("light load should keep all sensors alive: %+v", res)
	}
}

func TestPartialCharging(t *testing.T) {
	nw := smallNetwork(t, 120, 19)
	full, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{Duration: 60 * 86400, BatchWindow: DefaultBatchWindow})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{
		Duration:    60 * 86400,
		BatchWindow: DefaultBatchWindow,
		ChargeLevel: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Partial charging delivers less energy per visit, so sensors come
	// back more often: more charges, less energy per charge.
	if partial.Charges <= full.Charges {
		t.Errorf("partial charges %d <= full charges %d", partial.Charges, full.Charges)
	}
	if partial.EnergyDelivered/float64(partial.Charges) >=
		full.EnergyDelivered/float64(full.Charges) {
		t.Error("partial charging should deliver less energy per charge")
	}
	// And per-round tours are shorter.
	if partial.AvgLongest >= full.AvgLongest {
		t.Errorf("partial avg longest %v >= full %v", partial.AvgLongest, full.AvgLongest)
	}
}

func TestChargeLevelDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ChargeLevel != 1 {
		t.Errorf("default ChargeLevel = %v, want 1", cfg.ChargeLevel)
	}
	cfg = Config{ChargeLevel: 1.7}.withDefaults()
	if cfg.ChargeLevel != 1 {
		t.Errorf("out-of-range ChargeLevel = %v, want clamped to 1", cfg.ChargeLevel)
	}
	cfg = Config{ChargeLevel: 0.5}.withDefaults()
	if cfg.ChargeLevel != 0.5 {
		t.Errorf("ChargeLevel = %v, want 0.5", cfg.ChargeLevel)
	}
}

func TestChargeAtPartialLevels(t *testing.T) {
	s := sensorState{residual: 100, draw: 1, capacity: 1000, deadAt: -1}
	if got := s.chargeAt(10, 0.5); got != 410 {
		t.Errorf("delivered = %v, want 410 (to 500 from 90)", got)
	}
	if s.residual != 500 {
		t.Errorf("residual = %v, want 500", s.residual)
	}
	// Charging to a level below the current residual delivers nothing.
	if got := s.chargeAt(20, 0.1); got != 0 {
		t.Errorf("downward charge delivered %v, want 0", got)
	}
	if s.residual >= 500 {
		// advanceTo(20) drained 10 J first.
		t.Errorf("residual = %v, expected slight drain", s.residual)
	}
}

// traceModes are the dispatch modes every trace test runs under: both
// must write the trace Config.Trace promises.
var traceModes = []DispatchMode{DispatchSynchronized, DispatchIndependent}

func TestTraceStream(t *testing.T) {
	for _, mode := range traceModes {
		t.Run(mode.String(), func(t *testing.T) {
			nw := smallNetwork(t, 60, 21)
			var buf bytes.Buffer
			res, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{
				Duration:    30 * 86400,
				BatchWindow: DefaultBatchWindow,
				Dispatch:    mode,
				Trace:       &buf,
			})
			if err != nil {
				t.Fatal(err)
			}
			// A synchronized round sends the whole fleet (-1); an
			// independent dispatch names its charger.
			chargerOK := func(c int) bool { return c == -1 }
			if mode == DispatchIndependent {
				chargerOK = func(c int) bool { return c >= 0 && c < 2 }
			}
			dispatches, charges := 0, 0
			dec := json.NewDecoder(&buf)
			for dec.More() {
				var ev TraceEvent
				if err := dec.Decode(&ev); err != nil {
					t.Fatalf("trace line does not parse: %v", err)
				}
				switch ev.Kind {
				case "dispatch":
					dispatches++
					if ev.Batch <= 0 || ev.Stops <= 0 || ev.Delay <= 0 || !chargerOK(ev.Charger) {
						t.Fatalf("malformed dispatch event: %+v", ev)
					}
				case "charge":
					charges++
					if ev.Sensor < 0 || ev.Sensor >= len(nw.Sensors) {
						t.Fatalf("charge for unknown sensor: %+v", ev)
					}
				case "dead":
				default:
					t.Fatalf("unknown event kind %q", ev.Kind)
				}
			}
			if dispatches != len(res.Rounds) {
				t.Errorf("trace dispatches = %d, rounds = %d", dispatches, len(res.Rounds))
			}
			if charges != res.Charges {
				t.Errorf("trace charges = %d, result charges = %d", charges, res.Charges)
			}
		})
	}
}

func TestTraceNilWriterIsFine(t *testing.T) {
	nw := smallNetwork(t, 20, 22)
	if _, err := Run(context.Background(), nw, 1, core.ApproPlanner{}, Config{Duration: 10 * 86400}); err != nil {
		t.Fatal(err)
	}
}

// errWriter fails after the first write, for trace error propagation.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestTraceWriteErrorSurfaces(t *testing.T) {
	for _, mode := range traceModes {
		t.Run(mode.String(), func(t *testing.T) {
			nw := smallNetwork(t, 60, 23)
			_, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{
				Duration: 30 * 86400,
				Dispatch: mode,
				Trace:    &errWriter{},
			})
			if err == nil {
				t.Error("trace write error was swallowed")
			}
		})
	}
}

func TestResultSummaryHelpers(t *testing.T) {
	r := &Result{Rounds: []Round{
		{Batch: 10, Stops: 4, Wait: 2},
		{Batch: 6, Stops: 4, Wait: 0},
	}}
	if got := r.MeanBatch(); got != 8 {
		t.Errorf("MeanBatch = %v, want 8", got)
	}
	if got := r.MeanStops(); got != 4 {
		t.Errorf("MeanStops = %v, want 4", got)
	}
	if got := r.ConsolidationFactor(); got != 2 {
		t.Errorf("ConsolidationFactor = %v, want 2", got)
	}
	empty := &Result{}
	if empty.MeanBatch() != 0 || empty.MeanStops() != 0 || empty.ConsolidationFactor() != 0 {
		t.Error("empty result helpers should be zero")
	}
}

func TestResultSummaryDegenerateCases(t *testing.T) {
	cases := []struct {
		name                         string
		res                          *Result
		meanBatch, meanStops, consol float64
	}{
		{"empty result", &Result{}, 0, 0, 0},
		{"nil rounds slice", &Result{Rounds: nil}, 0, 0, 0},
		{
			// A fleet-lost round can serve nothing at all.
			"zero-batch zero-stop rounds",
			&Result{Rounds: []Round{{Batch: 0, Stops: 0}, {Batch: 0, Stops: 0}}},
			0, 0, 0,
		},
		{
			"stops without batch",
			&Result{Rounds: []Round{{Batch: 0, Stops: 3}}},
			0, 3, 0,
		},
		{
			"single round",
			&Result{Rounds: []Round{{Batch: 5, Stops: 2, Wait: 7.5}}},
			5, 2, 2.5,
		},
		{
			"wait without stops",
			&Result{Rounds: []Round{{Wait: 1}, {Wait: 2}}},
			0, 0, 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.res.MeanBatch(); got != tc.meanBatch {
				t.Errorf("MeanBatch = %v, want %v", got, tc.meanBatch)
			}
			if got := tc.res.MeanStops(); got != tc.meanStops {
				t.Errorf("MeanStops = %v, want %v", got, tc.meanStops)
			}
			if got := tc.res.ConsolidationFactor(); got != tc.consol {
				t.Errorf("ConsolidationFactor = %v, want %v", got, tc.consol)
			}
		})
	}
}

func TestConsolidationFactorAboveOneForAppro(t *testing.T) {
	// Dense network: Appro must consolidate (>1 sensors per stop), while
	// the one-to-one K-minMax baseline sits exactly at 1.
	nw := smallNetwork(t, 400, 31)
	appro, err := Run(context.Background(), nw, 2, core.ApproPlanner{}, Config{Duration: 120 * 86400, BatchWindow: DefaultBatchWindow})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(context.Background(), nw, 2, baselines.KMinMax{}, Config{Duration: 120 * 86400, BatchWindow: DefaultBatchWindow})
	if err != nil {
		t.Fatal(err)
	}
	if got := one.ConsolidationFactor(); got != 1 {
		t.Errorf("one-to-one consolidation = %v, want exactly 1", got)
	}
	if got := appro.ConsolidationFactor(); got <= 1 {
		t.Errorf("Appro consolidation = %v, want > 1", got)
	}
}
