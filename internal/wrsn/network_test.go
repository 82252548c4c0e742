package wrsn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
)

func lineNetwork() *Network {
	// Base at origin; sensors in a chain at x = 10, 20, 30 with TxRange
	// 12: routing must be 0 <- 1 <- 2 with sensor 0 uplinking directly.
	nw := &Network{
		Field:      geom.Square(100),
		Base:       geom.Pt(0, 0),
		Depot:      geom.Pt(0, 0),
		TxRange:    12,
		Gamma:      2.7,
		ChargeRate: 2,
		Speed:      1,
		Radio:      energy.DefaultRadio(),
	}
	for i := 0; i < 3; i++ {
		nw.Sensors = append(nw.Sensors, Sensor{
			ID:       i,
			Pos:      geom.Pt(float64(10*(i+1)), 0),
			DataRate: 10e3,
			Battery:  energy.Battery{Capacity: 10800, Residual: 10800},
			Parent:   -1,
		})
	}
	return nw
}

func TestBuildRoutingChain(t *testing.T) {
	nw := lineNetwork()
	nw.BuildRouting()
	if nw.Sensors[0].Parent != -1 {
		t.Errorf("sensor 0 parent = %d, want -1 (direct uplink)", nw.Sensors[0].Parent)
	}
	if nw.Sensors[1].Parent != 0 || nw.Sensors[2].Parent != 1 {
		t.Errorf("chain parents = %d, %d, want 0, 1", nw.Sensors[1].Parent, nw.Sensors[2].Parent)
	}
	// Relay loads: sensor 0 relays traffic of 1 and 2; sensor 1 relays 2.
	if math.Abs(nw.Sensors[0].RelayBps-20e3) > 1e-9 {
		t.Errorf("sensor 0 relay = %v, want 20k", nw.Sensors[0].RelayBps)
	}
	if math.Abs(nw.Sensors[1].RelayBps-10e3) > 1e-9 {
		t.Errorf("sensor 1 relay = %v, want 10k", nw.Sensors[1].RelayBps)
	}
	if nw.Sensors[2].RelayBps != 0 {
		t.Errorf("leaf relay = %v, want 0", nw.Sensors[2].RelayBps)
	}
	// Energy hole: the sensor closest to the base draws the most.
	if !(nw.Sensors[0].Draw > nw.Sensors[1].Draw && nw.Sensors[1].Draw > nw.Sensors[2].Draw) {
		t.Errorf("draws not decreasing toward leaves: %v, %v, %v",
			nw.Sensors[0].Draw, nw.Sensors[1].Draw, nw.Sensors[2].Draw)
	}
}

func TestBuildRoutingDisconnectedFallback(t *testing.T) {
	nw := lineNetwork()
	// Move sensor 2 far out of everyone's range.
	nw.Sensors[2].Pos = geom.Pt(90, 90)
	nw.BuildRouting()
	if nw.Sensors[2].Parent != -1 {
		t.Errorf("disconnected sensor parent = %d, want -1", nw.Sensors[2].Parent)
	}
	if nw.Sensors[2].Draw <= 0 {
		t.Error("disconnected sensor should still have positive draw")
	}
}

func TestBuildRoutingEmpty(t *testing.T) {
	nw := &Network{TxRange: 10, ChargeRate: 2, Speed: 1, Radio: energy.DefaultRadio()}
	nw.BuildRouting() // must not panic
	if nw.TotalDraw() != 0 {
		t.Error("empty network draw should be 0")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Network)
	}{
		{"zero tx range", func(nw *Network) { nw.TxRange = 0 }},
		{"negative gamma", func(nw *Network) { nw.Gamma = -1 }},
		{"zero charge rate", func(nw *Network) { nw.ChargeRate = 0 }},
		{"zero speed", func(nw *Network) { nw.Speed = 0 }},
		{"bad radio", func(nw *Network) { nw.Radio.DutyCycle = 2 }},
		{"bad sensor ID", func(nw *Network) { nw.Sensors[1].ID = 7 }},
		{"duplicate sensor IDs", func(nw *Network) { nw.Sensors[1].ID = 0; nw.Sensors[2].ID = 0 }},
		{"negative data rate", func(nw *Network) { nw.Sensors[0].DataRate = -1 }},
		{"bad battery", func(nw *Network) { nw.Sensors[0].Battery.Residual = -5 }},
		{"NaN sensor position", func(nw *Network) { nw.Sensors[1].Pos.X = math.NaN() }},
		{"Inf sensor position", func(nw *Network) { nw.Sensors[2].Pos.Y = math.Inf(1) }},
		{"NaN base", func(nw *Network) { nw.Base.Y = math.NaN() }},
		{"Inf depot", func(nw *Network) { nw.Depot.X = math.Inf(-1) }},
		{"NaN field", func(nw *Network) { nw.Field.Max.X = math.NaN() }},
		{"NaN gamma", func(nw *Network) { nw.Gamma = math.NaN() }},
		{"Inf speed", func(nw *Network) { nw.Speed = math.Inf(1) }},
		{"NaN charge rate", func(nw *Network) { nw.ChargeRate = math.NaN() }},
		{"Inf tx range", func(nw *Network) { nw.TxRange = math.Inf(1) }},
		{"NaN data rate", func(nw *Network) { nw.Sensors[0].DataRate = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			nw := lineNetwork()
			tt.mutate(nw)
			err := nw.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(err, ErrInvalidNetwork) {
				t.Errorf("error %v does not wrap ErrInvalidNetwork", err)
			}
		})
	}
	if err := lineNetwork().Validate(); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
}

func TestRequests(t *testing.T) {
	nw := lineNetwork()
	nw.Sensors[1].Battery.Residual = 0.1 * 10800 // below 20%
	nw.Sensors[2].Battery.Residual = 0.19 * 10800
	reqs := nw.Requests(0.2)
	if len(reqs) != 2 || reqs[0] != 1 || reqs[1] != 2 {
		t.Fatalf("Requests = %v, want [1 2]", reqs)
	}
}

func TestTotalDraw(t *testing.T) {
	nw := lineNetwork()
	nw.BuildRouting()
	sum := 0.0
	for i := range nw.Sensors {
		sum += nw.Sensors[i].Draw
	}
	if math.Abs(nw.TotalDraw()-sum) > 1e-12 {
		t.Error("TotalDraw mismatch")
	}
}
