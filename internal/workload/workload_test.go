package workload

import (
	"testing"
)

func TestNewParamsMatchPaper(t *testing.T) {
	p := NewParams(1000)
	if p.N != 1000 || p.FieldSide != 100 || p.BatteryJ != 10800 ||
		p.Gamma != 2.7 || p.Speed != 1 || p.ChargeRate != 2 ||
		p.BMinBps != 1e3 || p.BMaxBps != 50e3 {
		t.Errorf("paper defaults wrong: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"negative N", func(p *Params) { p.N = -1 }},
		{"zero field", func(p *Params) { p.FieldSide = 0 }},
		{"zero battery", func(p *Params) { p.BatteryJ = 0 }},
		{"rate bounds inverted", func(p *Params) { p.BMaxBps = p.BMinBps - 1 }},
		{"negative rate", func(p *Params) { p.BMinBps = -1 }},
		{"residual bounds inverted", func(p *Params) { p.InitialResidualLow = 0.9; p.InitialResidualHigh = 0.5 }},
		{"residual above one", func(p *Params) { p.InitialResidualHigh = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := NewParams(100)
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := NewParams(200)
	a, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sensors {
		if a.Sensors[i].Pos != b.Sensors[i].Pos || a.Sensors[i].DataRate != b.Sensors[i].DataRate {
			t.Fatal("same seed produced different networks")
		}
	}
	c, err := Generate(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sensors[0].Pos == c.Sensors[0].Pos {
		t.Error("different seeds produced identical first sensor (suspicious)")
	}
}

func TestGenerateProperties(t *testing.T) {
	p := NewParams(500)
	nw, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Sensors) != 500 {
		t.Fatalf("sensors = %d", len(nw.Sensors))
	}
	if nw.Base != nw.Field.Center() || nw.Depot != nw.Base {
		t.Error("base/depot should be at field center")
	}
	for i, s := range nw.Sensors {
		if nw.Field.Clamp(s.Pos) != s.Pos {
			t.Fatalf("sensor %d outside field: %v", i, s.Pos)
		}
		if s.DataRate < p.BMinBps || s.DataRate > p.BMaxBps {
			t.Fatalf("sensor %d data rate %v outside bounds", i, s.DataRate)
		}
		frac := s.Battery.Fraction()
		if frac < p.InitialResidualLow-1e-9 || frac > p.InitialResidualHigh+1e-9 {
			t.Fatalf("sensor %d residual fraction %v outside bounds", i, frac)
		}
		if s.Draw <= 0 {
			t.Fatalf("sensor %d has non-positive draw", i)
		}
	}
}

func TestGenerateClustered(t *testing.T) {
	p := NewParams(300)
	p.Clusters = 4
	nw, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Sensors) != 300 {
		t.Fatalf("sensors = %d", len(nw.Sensors))
	}
	for _, s := range nw.Sensors {
		if nw.Field.Clamp(s.Pos) != s.Pos {
			t.Fatal("clustered sensor outside field (clamp failed)")
		}
	}
}

func TestGenerateZeroSensors(t *testing.T) {
	nw, err := Generate(NewParams(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Sensors) != 0 {
		t.Error("expected empty network")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	p := NewParams(10)
	p.BatteryJ = -1
	if _, err := Generate(p, 1); err == nil {
		t.Error("expected error")
	}
}

// TestCalibration documents the load regime the evaluation depends on: at
// n = 1000 with paper parameters, the aggregate network draw should be in
// the same ballpark as (and somewhat above) the 4 W that K = 2 chargers
// can deliver one-to-one, so that multi-node charging is the difference
// between keeping up and falling behind.
func TestCalibration(t *testing.T) {
	nw, err := Generate(NewParams(1000), 3)
	if err != nil {
		t.Fatal(err)
	}
	total := nw.TotalDraw()
	if total < 1 || total > 20 {
		t.Errorf("total draw at n=1000 is %.2f W; calibration regression (want ~1-20 W)", total)
	}
	// And average per-sensor lifetime should be days, not minutes/years.
	avgDraw := total / 1000
	days := 10800 / avgDraw / 86400
	if days < 1 || days > 200 {
		t.Errorf("avg sensor lifetime %.1f days; calibration regression", days)
	}
	t.Logf("n=1000: total draw %.2f W, avg lifetime %.1f days", total, days)
}
