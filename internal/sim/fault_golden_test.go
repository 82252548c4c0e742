package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/wrsn"
)

// goldenNetwork hand-builds m sensors uniform in the side x side square
// with the given lower-left corner, the depot at (50, 50), every sensor
// below the request threshold at t=0 (residual 100..200 of 1000) and a
// pinned draw, so round 0 plans all of them.
func goldenNetwork(m int, seed int64, side float64, corner geom.Point, speed float64) *wrsn.Network {
	rng := rand.New(rand.NewSource(seed))
	nw := &wrsn.Network{
		Field:      geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)},
		Base:       geom.Pt(50, 50),
		Depot:      geom.Pt(50, 50),
		TxRange:    200,
		Gamma:      2.7,
		ChargeRate: 2,
		Speed:      speed,
		Radio:      energy.DefaultRadio(),
	}
	for i := 0; i < m; i++ {
		nw.Sensors = append(nw.Sensors, wrsn.Sensor{
			ID:      i,
			Pos:     geom.Pt(corner.X+rng.Float64()*side, corner.Y+rng.Float64()*side),
			Parent:  -1,
			Draw:    0.01,
			Battery: energy.Battery{Capacity: 1000, Residual: 100 + 100*rng.Float64()},
		})
	}
	return nw
}

// TestFaultRunGolden pins the fault path's output — the JSONL trace and
// the Result — byte for byte against files under testdata/fault_golden.
// Each scenario drives one rule of the fault-realizing executor:
//
//   - transient-travel: a repair pause struck during a travel leg is
//     taken at the next arrival (12 sensors spread over the field, 1 m/s).
//   - transient-mid-charge: a pause struck mid-charge extends that charge
//     (30 sensors in a 14 m cluster).
//   - transient-conflict-wait: the realized round waits out conflicting
//     charging intervals, and the pause strikes during such a wait.
//   - permanent-redistribute: a lost MCV's orphans move into the
//     surviving tour.
//   - noise: travel and charge noise over several rounds.
//   - independent-conflict-wait: independent dispatch around the depot,
//     where a new tour waits for another charger's interval. Its trace
//     holds each dispatch's charge lines and dispatch line in commit
//     order; the Result carries the waits.
//
// To re-record after a deliberate behaviour change, delete the files and
// run the test twice; the first run writes them and fails.
func TestFaultRunGolden(t *testing.T) {
	spread := func() *wrsn.Network { return goldenNetwork(12, 5, 90, geom.Pt(5, 5), 1) }
	cluster := func() *wrsn.Network { return goldenNetwork(30, 1, 14, geom.Pt(60, 60), 10) }
	scripted := func(tour int, transient bool, frac float64) Config {
		return Config{
			Duration: 86400, MaxRounds: 1, MinSlack: -1, Verify: true,
			Faults: &fault.Plan{Seed: 1, Scripted: []fault.ScriptedFailure{
				{Round: 0, Tour: tour, Transient: transient, Frac: frac},
			}},
		}
	}
	cases := []struct {
		name    string
		nw      func() *wrsn.Network
		k       int
		planner core.Planner
		cfg     Config
		// waits requires some round to have waited on a conflict.
		waits bool
	}{
		{name: "transient-travel", nw: spread, k: 2, planner: core.ApproPlanner{},
			cfg: scripted(0, true, 0.355)},
		{name: "transient-mid-charge", nw: cluster, k: 2, planner: core.ApproPlanner{},
			cfg: scripted(0, true, 0.5)},
		{name: "transient-conflict-wait", nw: cluster, k: 2, planner: baselines.KMinMax{},
			cfg: scripted(0, true, 0.02), waits: true},
		{name: "permanent-redistribute", nw: cluster, k: 2, planner: core.ApproPlanner{},
			cfg: scripted(0, false, 0.3)},
		{name: "noise", nw: spread, k: 2, planner: core.ApproPlanner{},
			cfg: Config{Duration: 5 * 86400, MinSlack: -1, Verify: true,
				Faults: &fault.Plan{Seed: 9, TravelNoise: 0.2, ChargeNoise: 0.1}}},
		{name: "independent-conflict-wait", k: 2, planner: core.ApproPlanner{},
			nw: func() *wrsn.Network { return goldenNetwork(30, 3, 10, geom.Pt(45, 45), 10) },
			cfg: Config{Duration: 3 * 86400, MinSlack: -1, Verify: true, Dispatch: DispatchIndependent,
				Faults: &fault.Plan{Seed: 3, TravelNoise: 0.1}},
			waits: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var trace bytes.Buffer
			cfg := tc.cfg
			cfg.Trace = &trace
			res, err := Run(context.Background(), tc.nw(), tc.k, tc.planner, cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Violations != 0 {
				t.Fatalf("%d violations, first: %s", res.Violations, res.FirstViolation)
			}
			if tc.waits {
				waited := false
				for _, r := range res.Rounds {
					waited = waited || r.Wait > 0
				}
				if !waited {
					t.Fatal("scenario no longer produces a conflict wait")
				}
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.name+".trace.jsonl", trace.Bytes())
			compareGolden(t, tc.name+".result.json", append(got, '\n'))
		})
	}
}

// compareGolden compares got with testdata/fault_golden/name, writing the
// file (and failing) when it does not exist yet.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "fault_golden", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("recorded %s; rerun to compare", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
