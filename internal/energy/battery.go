// Package energy models sensor batteries and the sensor energy consumption
// profile the paper adopts: a first-order radio model whose per-sensor load
// includes the traffic the sensor relays toward the base station, so that
// sensors near the base station deplete faster (the energy-hole profile of
// Li & Mohapatra, the paper's reference [12]).
package energy

import (
	"fmt"
	"math"
)

// Battery is a rechargeable sensor battery. All energies are in joules.
type Battery struct {
	// Capacity is C_v, the full energy capacity (paper: 10.8 kJ).
	Capacity float64 `json:"capacity"`
	// Residual is RE_v, the remaining energy, in [0, Capacity].
	Residual float64 `json:"residual"`
}

// Validate reports a problem with the battery fields, or nil.
func (b Battery) Validate() error {
	if b.Capacity <= 0 || math.IsNaN(b.Capacity) || math.IsInf(b.Capacity, 0) {
		return fmt.Errorf("energy: capacity = %v, want finite > 0", b.Capacity)
	}
	if b.Residual < 0 || b.Residual > b.Capacity || math.IsNaN(b.Residual) {
		return fmt.Errorf("energy: residual = %v, want in [0, %v]", b.Residual, b.Capacity)
	}
	return nil
}

// Fraction returns Residual / Capacity.
func (b Battery) Fraction() float64 {
	if b.Capacity <= 0 {
		return 0
	}
	return b.Residual / b.Capacity
}
