// Package workload generates WRSN instances matching the paper's
// experimental environment (Section VI-A): n sensors uniformly random in a
// 100 x 100 m^2 field, base station and depot at the center, 10.8 kJ
// batteries, data rates uniform in [b_min, b_max], charging radius 2.7 m,
// charger speed 1 m/s and charging rate 2 W. It also provides a clustered
// deployment variant for the example scenarios, and RequestSet, the one
// synthetic planning-round request set the command-line tools share.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/wrsn"
)

// Params describes one generated WRSN. NewParams fills the paper defaults.
type Params struct {
	// N is the number of sensors (paper: 200..1200).
	N int
	// FieldSide is the square field side in meters (paper: 100).
	FieldSide float64
	// BatteryJ is the sensor battery capacity in joules (paper: 10800).
	BatteryJ float64
	// BMinBps and BMaxBps bound the sensing data rate in bits/s
	// (paper: 1 kbps and 50 kbps).
	BMinBps, BMaxBps float64
	// Gamma is the charging radius in meters (paper: 2.7).
	Gamma float64
	// Speed is the charger travel speed in m/s (paper: 1).
	Speed float64
	// ChargeRate is eta in watts (paper: 2).
	ChargeRate float64
	// TxRange is the sensor transmission range in meters.
	TxRange float64
	// Radio is the consumption model.
	Radio energy.RadioModel
	// Clusters > 0 places sensors in that many Gaussian clusters instead
	// of uniformly.
	Clusters int
	// ClusterStd is the cluster standard deviation in meters (default 8).
	ClusterStd float64
	// InitialResidualLow/High bound the initial residual battery fraction
	// drawn uniformly per sensor; defaults [0.25, 1.0] so that requests
	// de-synchronize at simulation start.
	InitialResidualLow, InitialResidualHigh float64
}

// NewParams returns the paper's default parameters for n sensors.
func NewParams(n int) Params {
	return Params{
		N:                   n,
		FieldSide:           100,
		BatteryJ:            10800,
		BMinBps:             1e3,
		BMaxBps:             50e3,
		Gamma:               2.7,
		Speed:               1,
		ChargeRate:          2,
		TxRange:             20,
		Radio:               energy.DefaultRadio(),
		InitialResidualLow:  0.25,
		InitialResidualHigh: 1.0,
	}
}

// Validate reports the first problem with the parameters, or nil.
func (p Params) Validate() error {
	if p.N < 0 {
		return fmt.Errorf("workload: N = %d, want >= 0", p.N)
	}
	if p.FieldSide <= 0 {
		return fmt.Errorf("workload: field side = %v, want > 0", p.FieldSide)
	}
	if p.BatteryJ <= 0 {
		return fmt.Errorf("workload: battery = %v J, want > 0", p.BatteryJ)
	}
	if p.BMinBps < 0 || p.BMaxBps < p.BMinBps {
		return fmt.Errorf("workload: data rate bounds [%v, %v] invalid", p.BMinBps, p.BMaxBps)
	}
	if p.InitialResidualLow < 0 || p.InitialResidualHigh > 1 ||
		p.InitialResidualHigh < p.InitialResidualLow {
		return fmt.Errorf("workload: initial residual bounds [%v, %v] invalid",
			p.InitialResidualLow, p.InitialResidualHigh)
	}
	return nil
}

// Generate builds a routed WRSN from the parameters using the given seed.
// The same seed always yields the same network.
func Generate(p Params, seed int64) (*wrsn.Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	field := geom.Square(p.FieldSide)
	center := field.Center()
	nw := &wrsn.Network{
		Field:      field,
		Base:       center,
		Depot:      center,
		TxRange:    p.TxRange,
		Gamma:      p.Gamma,
		ChargeRate: p.ChargeRate,
		Speed:      p.Speed,
		Radio:      p.Radio,
	}
	var centers []geom.Point
	if p.Clusters > 0 {
		centers = make([]geom.Point, p.Clusters)
		for i := range centers {
			centers[i] = geom.Pt(rng.Float64()*p.FieldSide, rng.Float64()*p.FieldSide)
		}
	}
	std := p.ClusterStd
	if std <= 0 {
		std = 8
	}
	for i := 0; i < p.N; i++ {
		var pos geom.Point
		if len(centers) > 0 {
			c := centers[i%len(centers)]
			pos = field.Clamp(geom.Pt(c.X+rng.NormFloat64()*std, c.Y+rng.NormFloat64()*std))
		} else {
			pos = geom.Pt(rng.Float64()*p.FieldSide, rng.Float64()*p.FieldSide)
		}
		frac := p.InitialResidualLow +
			rng.Float64()*(p.InitialResidualHigh-p.InitialResidualLow)
		nw.Sensors = append(nw.Sensors, wrsn.Sensor{
			ID:       i,
			Pos:      pos,
			DataRate: p.BMinBps + rng.Float64()*(p.BMaxBps-p.BMinBps),
			Battery:  energy.Battery{Capacity: p.BatteryJ, Residual: frac * p.BatteryJ},
			Parent:   -1,
		})
	}
	nw.BuildRouting()
	if err := nw.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated network invalid: %w", err)
	}
	return nw, nil
}

// RequestSet synthesizes one planning round's request set in the paper's
// regime: n sensors uniform in a side x side field with the depot at its
// center, each having requested at ~20% residual capacity, so charge
// durations fall in [1.2 h, 1.5 h]. The paper's field is side = 100, also
// used for side <= 0; the scaling ladder grows side as sqrt(n/0.12) to
// hold the density constant. Equal arguments give identical instances.
func RequestSet(n, k int, seed int64, side float64) *core.Instance {
	if !(side > 0) {
		side = 100
	}
	rng := rand.New(rand.NewSource(seed))
	in := &core.Instance{
		Depot: geom.Pt(side/2, side/2),
		Gamma: 2.7,
		Speed: 1,
		K:     k,
	}
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, core.Request{
			Pos:      geom.Pt(rng.Float64()*side, rng.Float64()*side),
			Duration: (1.2 + 0.3*rng.Float64()) * 3600,
			Lifetime: (1 + rng.Float64()*6) * 86400,
		})
	}
	return in
}
