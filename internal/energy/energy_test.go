package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBatteryBasics(t *testing.T) {
	for _, tc := range []struct {
		b    Battery
		want float64
	}{
		{Battery{Capacity: 10800, Residual: 10800}, 1},
		{Battery{Capacity: 10800, Residual: 2700}, 0.25},
		{Battery{Capacity: 10800}, 0},
		{Battery{}, 0}, // no capacity: no fraction, not a division by zero
	} {
		if got := tc.b.Fraction(); got != tc.want {
			t.Errorf("%+v.Fraction() = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestBatteryValidate(t *testing.T) {
	tests := []struct {
		name    string
		b       Battery
		wantErr bool
	}{
		{"valid", Battery{Capacity: 10, Residual: 5}, false},
		{"full", Battery{Capacity: 10, Residual: 10}, false},
		{"empty", Battery{Capacity: 10, Residual: 0}, false},
		{"zero capacity", Battery{}, true},
		{"negative residual", Battery{Capacity: 10, Residual: -1}, true},
		{"residual above capacity", Battery{Capacity: 10, Residual: 11}, true},
		{"NaN residual", Battery{Capacity: 10, Residual: math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.b.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRadioModelValidate(t *testing.T) {
	if err := DefaultRadio().Validate(); err != nil {
		t.Fatalf("default radio invalid: %v", err)
	}
	bad := DefaultRadio()
	bad.DutyCycle = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duty cycle should be invalid")
	}
	bad = DefaultRadio()
	bad.PathLoss = 9
	if err := bad.Validate(); err == nil {
		t.Error("path loss 9 should be invalid")
	}
	bad = DefaultRadio()
	bad.ElecJPerBit = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN elec should be invalid")
	}
}

func TestRadioDraw(t *testing.T) {
	m := RadioModel{ElecJPerBit: 50e-9, AmpJPerBitPow: 100e-12, SenseJPerBit: 5e-9, PathLoss: 2, DutyCycle: 1}
	// 50 kbps own, no relay, 10 m: sense 0.25 mW + tx (50n+10n)*50k = 3 mW.
	got := m.Draw(50e3, 0, 10)
	want := 5e-9*50e3 + (50e-9+100e-12*100)*50e3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Draw = %v, want %v", got, want)
	}
	// Relayed traffic adds tx and rx costs.
	withRelay := m.Draw(50e3, 100e3, 10)
	if withRelay <= got {
		t.Error("relaying should increase draw")
	}
	// Draw grows with distance.
	if m.Draw(50e3, 0, 40) <= m.Draw(50e3, 0, 10) {
		t.Error("draw should grow with parent distance")
	}
	// Negative inputs clamp to zero.
	if m.Draw(-1, -1, -1) != 0 {
		t.Error("all-negative draw should be 0")
	}
}

func TestRadioDrawMonotonicity(t *testing.T) {
	m := DefaultRadio()
	f := func(own, relay, d uint16) bool {
		o, r, dd := float64(own), float64(relay), float64(d%200)
		base := m.Draw(o, r, dd)
		return m.Draw(o+1000, r, dd) >= base &&
			m.Draw(o, r+1000, dd) >= base &&
			m.Draw(o, r, dd+5) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLifetimeScale(t *testing.T) {
	// Sanity-check the calibration: a mid-range sensor (25 kbps own, a
	// little relaying, 15 m hop) should live days-to-weeks on 10.8 kJ so
	// that a 1000-sensor network generates tens of requests per day.
	m := DefaultRadio()
	draw := m.Draw(25e3, 25e3, 15)
	days := 10800 / draw / 86400
	if days < 2 || days > 120 {
		t.Errorf("mid-range sensor lifetime = %.1f days; calibration regression", days)
	}
}
