package wrsn

import (
	"math"

	"repro/internal/geom"
	"repro/internal/stats"
)

// Stats summarizes a routed network's load profile; the calibration notes
// in DESIGN.md and the wrsn-gen tool use it.
type Stats struct {
	// Sensors is the population size.
	Sensors int
	// TotalDrawW is the aggregate power draw in watts.
	TotalDrawW float64
	// MeanDrawW / MaxDrawW summarize per-sensor draw.
	MeanDrawW, MaxDrawW float64
	// MeanHops is the mean routing-tree hop count to the base station.
	MeanHops float64
	// MaxHops is the deepest routing path.
	MaxHops int
	// DirectUplinks counts sensors whose routing parent is the base
	// station itself.
	DirectUplinks int
	// MeanLifetimeDays is the mean full-battery lifetime in days.
	MeanLifetimeDays float64
	// MinLifetimeHours is the hottest sensor's full-battery lifetime in
	// hours (the relay-heavy energy-hole sensors).
	MinLifetimeHours float64
	// MeanNeighbors is the mean charging-graph degree at radius gamma —
	// how many sensors a single sojourn can co-charge.
	MeanNeighbors float64
}

// ComputeStats derives summary statistics from a routed network.
func (nw *Network) ComputeStats() Stats {
	st := Stats{Sensors: len(nw.Sensors)}
	if len(nw.Sensors) == 0 {
		return st
	}
	var draw, life stats.Accumulator
	hops := make([]int, len(nw.Sensors))
	for i := range hops {
		hops[i] = -1
	}
	var hopOf func(i int) int
	hopOf = func(i int) int {
		if hops[i] >= 0 {
			return hops[i]
		}
		p := nw.Sensors[i].Parent
		if p < 0 {
			hops[i] = 1
		} else {
			hops[i] = hopOf(p) + 1
		}
		return hops[i]
	}
	var hopAcc stats.Accumulator
	for i := range nw.Sensors {
		s := &nw.Sensors[i]
		draw.Add(s.Draw)
		if s.Draw > 0 {
			life.Add(s.Battery.Capacity / s.Draw)
		}
		h := hopOf(i)
		hopAcc.Add(float64(h))
		if h > st.MaxHops {
			st.MaxHops = h
		}
		if s.Parent < 0 {
			st.DirectUplinks++
		}
	}
	st.TotalDrawW = draw.Mean() * float64(draw.N())
	st.MeanDrawW = draw.Mean()
	st.MaxDrawW = draw.Max()
	st.MeanHops = hopAcc.Mean()
	st.MeanLifetimeDays = life.Mean() / 86400
	if life.N() > 0 {
		st.MinLifetimeHours = life.Min() / 3600
	} else {
		st.MinLifetimeHours = math.Inf(1)
	}
	// Charging-graph degree at radius gamma.
	grid := geom.NewGrid(nw.Positions(), nw.Gamma)
	var deg stats.Accumulator
	var buf []int
	for i := range nw.Sensors {
		buf = grid.NeighborsOf(i, nw.Gamma, buf)
		deg.Add(float64(len(buf)))
	}
	st.MeanNeighbors = deg.Mean()
	return st
}
